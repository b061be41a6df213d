#include "rfp/common/angles.hpp"

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "rfp/common/constants.hpp"
#include "rfp/common/error.hpp"
#include "rfp/common/rng.hpp"

namespace rfp {
namespace {

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
