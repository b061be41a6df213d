#include "rfp/common/angles.hpp"

#include <cmath>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "rfp/common/constants.hpp"
#include "rfp/common/error.hpp"
#include "rfp/common/rng.hpp"
#include "support/bits.hpp"

namespace rfp {
namespace {

using testutil::same_bits;

// ---- Exactness of the fast reductions ------------------------------------
// remainder_pi and wrap_to_2pi promise libm's bits for every input. The
// references below are the libm expressions they replaced.

double reference_remainder_pi(double x) { return std::remainder(x, kPi); }

double reference_wrap_to_2pi(double a) {
  double r = std::fmod(a, kTwoPi);
  if (r < 0.0) r += kTwoPi;
  if (r >= kTwoPi) r -= kTwoPi;
  return r;
}

/// Checks both functions at `x`; returns false (after one gtest failure
/// per function) on the first mismatch so a sweep can stop early.
bool both_match(double x) {
  const double rem = remainder_pi(x);
  const double rem_ref = reference_remainder_pi(x);
  const double wrap = wrap_to_2pi(x);
  const double wrap_ref = reference_wrap_to_2pi(x);
  EXPECT_TRUE(same_bits(rem, rem_ref))
      << std::hexfloat << "remainder_pi(" << x << ") = " << rem
      << ", libm " << rem_ref;
  EXPECT_TRUE(same_bits(wrap, wrap_ref))
      << std::hexfloat << "wrap_to_2pi(" << x << ") = " << wrap
      << ", libm " << wrap_ref;
  return same_bits(rem, rem_ref) && same_bits(wrap, wrap_ref);
}

/// `per_decade` random inputs of both signs in each decade [10^d, 10^(d+1))
/// for d in [first, last).
void sweep_decades(int first, int last, int per_decade, std::uint64_t seed) {
  Rng rng(seed);
  for (int d = first; d < last; ++d) {
    const double lo = std::pow(10.0, d);
    for (int i = 0; i < per_decade; ++i) {
      const double x = lo + 9.0 * lo * rng.uniform();
      if (!both_match(rng.uniform() < 0.5 ? -x : x)) return;
    }
  }
}

// The fast paths answer only below 2^20 periods (3.3e6 for pi, 6.6e6 for
// 2*pi); every decade up to 10^7 gets a million inputs, in two shards.
TEST(ExactReduction, MatchesLibmFrom1eMinus300To1eMinus100) {
  sweep_decades(-300, -100, 1'000'000, 1);
}

TEST(ExactReduction, MatchesLibmFrom1eMinus100To1e7) {
  sweep_decades(-100, 7, 1'000'000, 2);
}

TEST(ExactReduction, MatchesLibmFrom1e7To1e300) {
  // Above 2^20 periods both functions take the libm fallback, so these
  // decades check only that branch. glibc's fmod costs up to 5 us a call
  // there, so they get 10^3 inputs each, not 10^6.
  sweep_decades(7, 300, 1'000, 3);
}

/// `x` and its 8 neighbours in ulps on either side.
bool neighbourhood_matches(double x) {
  double up = x;
  double down = x;
  if (!both_match(x)) return false;
  for (int i = 0; i < 8; ++i) {
    up = std::nextafter(up, std::numeric_limits<double>::infinity());
    down = std::nextafter(down, -std::numeric_limits<double>::infinity());
    if (!both_match(up) || !both_match(down)) return false;
  }
  return true;
}

TEST(ExactReduction, MatchesLibmNearMultiplesOfHalfPiAndTwoPi) {
  // k*pi/2 holds remainder_pi's rounding boundaries (odd k) and its zero
  // results (even k); k*2*pi holds wrap_to_2pi's. Just off a boundary, at
  // the edge of the 1e-9 quotient margin, the fast path takes over.
  for (int k = -100'000; k <= 100'000; ++k) {
    const double kd = static_cast<double>(k);
    if (!neighbourhood_matches(kd * (kPi / 2.0))) return;
    if (!neighbourhood_matches(kd * kTwoPi)) return;
    for (double m : {0.9e-9, 1.1e-9}) {
      if (!neighbourhood_matches((kd / 2.0 + m) * kPi)) return;
      if (!neighbourhood_matches((kd / 2.0 - m) * kPi)) return;
      if (!neighbourhood_matches((kd + m) * kTwoPi)) return;
      if (!neighbourhood_matches((kd - m) * kTwoPi)) return;
    }
  }
}

TEST(ExactReduction, MatchesLibmOnSpecialValues) {
  using limits = std::numeric_limits<double>;
  for (double x : {0.0, -0.0, limits::infinity(), -limits::infinity(),
                   limits::quiet_NaN(), -limits::quiet_NaN(),
                   limits::signaling_NaN(), limits::max(), -limits::max(),
                   limits::min(), -limits::min(), limits::denorm_min(),
                   -limits::denorm_min(), limits::min() / 3.0,
                   -limits::min() / 7.0, kPi, -kPi, kTwoPi, -kTwoPi,
                   kPi / 2.0, -kPi / 2.0}) {
    EXPECT_TRUE(neighbourhood_matches(x)) << std::hexfloat << x;
  }
  EXPECT_TRUE(std::signbit(remainder_pi(-0.0)));
  EXPECT_TRUE(std::signbit(remainder_pi(-kPi)));  // libm's -0, not +0
  EXPECT_TRUE(std::isnan(remainder_pi(limits::infinity())));
  EXPECT_TRUE(std::isnan(wrap_to_2pi(-limits::infinity())));
}

TEST(WrapTo2Pi, CanonicalValues) {
  EXPECT_DOUBLE_EQ(wrap_to_2pi(0.0), 0.0);
  EXPECT_NEAR(wrap_to_2pi(kTwoPi), 0.0, 1e-12);
  EXPECT_NEAR(wrap_to_2pi(-0.1), kTwoPi - 0.1, 1e-12);
  EXPECT_NEAR(wrap_to_2pi(3.0 * kPi), kPi, 1e-12);
  EXPECT_NEAR(wrap_to_2pi(-5.0 * kTwoPi + 1.0), 1.0, 1e-9);
}

TEST(WrapTo2Pi, AlwaysInRange) {
  Rng rng(1);
  for (int i = 0; i < 10000; ++i) {
    const double a = rng.uniform(-1e4, 1e4);
    const double w = wrap_to_2pi(a);
    ASSERT_GE(w, 0.0) << a;
    ASSERT_LT(w, kTwoPi) << a;
    // Congruence: w - a is a multiple of 2*pi.
    const double m = (a - w) / kTwoPi;
    ASSERT_NEAR(m, std::round(m), 1e-6) << a;
  }
}

TEST(WrapToPi, RangeAndCongruence) {
  Rng rng(2);
  for (int i = 0; i < 10000; ++i) {
    const double a = rng.uniform(-1e4, 1e4);
    const double w = wrap_to_pi(a);
    ASSERT_GE(w, -kPi);
    ASSERT_LT(w, kPi);
    const double m = (a - w) / kTwoPi;
    ASSERT_NEAR(m, std::round(m), 1e-6);
  }
}

TEST(AngDiff, ShortestRotation) {
  EXPECT_NEAR(ang_diff(0.1, kTwoPi - 0.1), 0.2, 1e-12);
  EXPECT_NEAR(ang_diff(kTwoPi - 0.1, 0.1), -0.2, 1e-12);
  EXPECT_NEAR(ang_diff(1.0, 1.0), 0.0, 1e-12);
  // Antipodal difference maps to -pi (half-open convention).
  EXPECT_NEAR(ang_diff(0.0, kPi), -kPi, 1e-12);
}

TEST(AngDiff, AntiSymmetricUpToWrap) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const double a = rng.uniform(0.0, kTwoPi);
    const double b = rng.uniform(0.0, kTwoPi);
    const double d1 = ang_diff(a, b);
    const double d2 = ang_diff(b, a);
    if (std::abs(std::abs(d1) - kPi) > 1e-9) {
      ASSERT_NEAR(d1, -d2, 1e-9);
    }
  }
}

TEST(CircularMean, SimpleCluster) {
  const std::vector<double> angles{0.1, 0.2, 0.3};
  EXPECT_NEAR(circular_mean(angles), 0.2, 1e-12);
}

TEST(CircularMean, WrapsAroundZero) {
  const std::vector<double> angles{kTwoPi - 0.1, 0.1};
  EXPECT_NEAR(wrap_to_pi(circular_mean(angles)), 0.0, 1e-9);
}

TEST(CircularMean, EmptyThrows) {
  EXPECT_THROW(circular_mean(std::vector<double>{}), InvalidArgument);
}

TEST(CircularMean, AntipodalThrows) {
  const std::vector<double> angles{0.0, kPi};
  EXPECT_THROW(circular_mean(angles), InvalidArgument);
}

TEST(CircularMean, InvariantToRotation) {
  Rng rng(4);
  for (int trial = 0; trial < 100; ++trial) {
    std::vector<double> angles;
    for (int i = 0; i < 9; ++i) angles.push_back(rng.gaussian(1.0, 0.3));
    const double base = circular_mean(angles);
    const double shift = rng.uniform(0.0, kTwoPi);
    for (double& a : angles) a = wrap_to_2pi(a + shift);
    const double shifted = circular_mean(angles);
    ASSERT_NEAR(std::abs(ang_diff(shifted, base + shift)), 0.0, 1e-9);
  }
}

TEST(Unwrap, RemovesArtificialWraps) {
  // A steadily increasing sequence wrapped to [0, 2*pi) must unwrap back
  // to itself (up to the starting offset).
  std::vector<double> truth;
  std::vector<double> wrapped;
  for (int i = 0; i < 200; ++i) {
    const double v = 0.35 * static_cast<double>(i);
    truth.push_back(v);
    wrapped.push_back(wrap_to_2pi(v));
  }
  const std::vector<double> un = unwrap(wrapped);
  for (std::size_t i = 0; i < truth.size(); ++i) {
    ASSERT_NEAR(un[i] - un[0], truth[i] - truth[0], 1e-9);
  }
}

TEST(Unwrap, AdjacentStepsBelowPi) {
  Rng rng(6);
  std::vector<double> wrapped;
  for (int i = 0; i < 500; ++i) wrapped.push_back(rng.uniform(0.0, kTwoPi));
  const std::vector<double> un = unwrap(wrapped);
  for (std::size_t i = 1; i < un.size(); ++i) {
    ASSERT_LT(std::abs(un[i] - un[i - 1]), kPi + 1e-12);
  }
}

TEST(Unwrap, SingleElement) {
  const std::vector<double> one{1.5};
  EXPECT_EQ(unwrap(one), one);
}

TEST(DegRadConversions, RoundTrip) {
  EXPECT_DOUBLE_EQ(deg2rad(180.0), kPi);
  EXPECT_DOUBLE_EQ(rad2deg(kPi), 180.0);
  EXPECT_NEAR(rad2deg(deg2rad(37.25)), 37.25, 1e-12);
}

}  // namespace
}  // namespace rfp
