#include "rfp/common/angles.hpp"

#include <bit>
#include <cmath>
#include <cstdint>

#include "rfp/common/constants.hpp"
#include "rfp/common/error.hpp"

namespace rfp {

namespace {

// Cody–Waite split of kPi: kPiHi keeps the top 32 significand bits, kPiLo
// is the exact rest (21 bits). For an integer |n| <= 2^20 both n*kPiHi and
// n*kPiLo are exact, and so is x - n*kPiHi: it is smaller than 8 and lies
// on x's grid, since |x| < 2^23 makes ulp(x) divide kPiHi's last bit.
// Then r = x - n*kPiHi - n*kPiLo is the exact x - n*kPi, and when n is the
// right quotient that is the remainder, which is always representable: r
// comes out bitwise equal to libm's. The same holds for period 2*pi with
// the doubled constants.
constexpr double kPiHi = std::bit_cast<double>(
    std::bit_cast<std::uint64_t>(kPi) & ~((std::uint64_t{1} << 21) - 1));
constexpr double kPiLo = kPi - kPiHi;
constexpr double kInvPi = 1.0 / kPi;
constexpr double kInvTwoPi = 1.0 / kTwoPi;

// Beyond 2^20 periods the split's products are no longer exact.
constexpr double kFastQuotientLimit = 0x1p20;
// x * (1/period) is within 2 ulps of the exact quotient, about 2e-10 at
// 2^20; a quotient this close to a rounding boundary may round either way.
constexpr double kBoundaryMargin = 1e-9;

/// std::fmod(a, kTwoPi), computed exactly by the split when the quotient is
/// safely inside (-2^20, 2^20) and away from an integer; libm otherwise.
/// A zero remainder needs an integer quotient, so it always takes libm.
double fmod_2pi(double a) {
  const double q = a * kInvTwoPi;
  if (!(std::abs(q) < kFastQuotientLimit)) return std::fmod(a, kTwoPi);
  const double n = static_cast<double>(static_cast<std::int64_t>(q));
  const double frac = std::abs(q - n);
  if (frac < kBoundaryMargin || frac > 1.0 - kBoundaryMargin) {
    return std::fmod(a, kTwoPi);
  }
  return (a - n * (2.0 * kPiHi)) - n * (2.0 * kPiLo);
}

}  // namespace

double remainder_pi(double x) {
  const double q = x * kInvPi;
  if (!(std::abs(q) < kFastQuotientLimit)) return std::remainder(x, kPi);
  // Round to nearest, ties to even: adding 1.5 * 2^52 leaves no fraction bits.
  const double n = (q + 0x1.8p52) - 0x1.8p52;
  if (std::abs(q - n) > 0.5 - kBoundaryMargin) return std::remainder(x, kPi);
  const double r = (x - n * kPiHi) - n * kPiLo;
  // libm gives a zero remainder the sign of x; the split would give +0.
  if (r == 0.0) return std::remainder(x, kPi);
  return r;
}

double wrap_to_2pi(double a) {
  double r = fmod_2pi(a);
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
