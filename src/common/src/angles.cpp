#include "rfp/common/angles.hpp"

#include <cmath>

#include "rfp/common/constants.hpp"
#include "rfp/common/error.hpp"

namespace rfp {

double wrap_to_2pi(double a) {
  double r = std::fmod(a, kTwoPi);
  if (r < 0.0) r += kTwoPi;
  // fmod can return exactly kTwoPi after the += when r was a tiny negative.
  if (r >= kTwoPi) r -= kTwoPi;
  return r;
}

double wrap_to_pi(double a) {
  double r = wrap_to_2pi(a + kPi);
  return r - kPi;
}

double ang_diff(double a, double b) { return wrap_to_pi(a - b); }

double circular_mean(std::span<const double> angles) {
  require(!angles.empty(), "circular_mean: empty input");
  double s = 0.0;
  double c = 0.0;
  for (double a : angles) {
    s += std::sin(a);
    c += std::cos(a);
  }
  if (std::hypot(s, c) < 1e-12) {
    throw InvalidArgument("circular_mean: resultant vector is zero");
  }
  return std::atan2(s, c);
}

std::vector<double> unwrap(std::span<const double> wrapped) {
  std::vector<double> out(wrapped.begin(), wrapped.end());
  for (std::size_t i = 1; i < out.size(); ++i) {
    const double step = ang_diff(out[i], out[i - 1]);
    out[i] = out[i - 1] + step;
  }
  return out;
}

}  // namespace rfp
