#include "rfp/core/fitting.hpp"

#include <gtest/gtest.h>

#include "rfp/common/angles.hpp"
#include "rfp/common/constants.hpp"
#include "rfp/common/error.hpp"
#include "support/core_test_util.hpp"

namespace rfp {
namespace {

using testutil::noiseless_channel;
using testutil::noiseless_reader;

/// Build a synthetic AntennaTrace with wrapped phases k*f + b (+ optional
/// per-channel corruption).
AntennaTrace synthetic_trace(double k, double b,
                             const std::vector<std::pair<std::size_t, double>>&
                                 corruption = {}) {
  std::vector<double> raw(kNumChannels);
  for (std::size_t i = 0; i < kNumChannels; ++i) {
    raw[i] = k * channel_frequency(i) + b;
  }
  for (const auto& [idx, delta] : corruption) raw[idx] += delta;

  AntennaTrace trace;
  trace.antenna = 0;
  for (std::size_t i = 0; i < kNumChannels; ++i) {
    trace.frequency_hz.push_back(channel_frequency(i));
    trace.wrapped_phase.push_back(wrap_to_2pi(raw[i]));
  }
  return trace;
}

TEST(FitAntennaLine, ExactLineRecoveredIncludingParity) {
  const double k = 9.2e-8;
  for (double b : {0.4, 2.0, 4.0, 5.9}) {
    const AntennaTrace trace = synthetic_trace(k, b);
    const AntennaLine line = fit_antenna_line(trace, FittingConfig{});
    EXPECT_NEAR(line.fit.slope, k, 1e-12) << "b=" << b;
    // Intercept congruent to b modulo 2*pi (parity resolved).
    EXPECT_NEAR(std::abs(ang_diff(line.fit.intercept, b)), 0.0, 1e-9)
        << "b=" << b;
    EXPECT_EQ(line.fit.n, kNumChannels);
  }
}

TEST(FitAntennaLine, SlopeSweepAcrossPhysicalRange) {
  // Distances 0.3 .. 5 m (plus material slopes) must all be resolvable.
  for (double d = 0.3; d <= 5.0; d += 0.47) {
    const double k = kSlopePerMeter * d + 3e-9;
    const AntennaTrace trace = synthetic_trace(k, 1.0);
    const AntennaLine line = fit_antenna_line(trace, FittingConfig{});
    ASSERT_NEAR(line.fit.slope, k, 1e-11) << "d=" << d;
  }
}

TEST(FitAntennaLine, GrossOutliersExcluded) {
  const double k = 8.5e-8;
  const AntennaTrace trace =
      synthetic_trace(k, 1.0, {{5, 1.4}, {20, -1.1}, {33, 0.9}});
  const AntennaLine line = fit_antenna_line(trace, FittingConfig{});
  EXPECT_FALSE(line.channel_inlier[5]);
  EXPECT_FALSE(line.channel_inlier[20]);
  EXPECT_FALSE(line.channel_inlier[33]);
  EXPECT_NEAR(line.fit.slope, k, 1e-11);
  EXPECT_EQ(line.fit.n, kNumChannels - 3);
}

TEST(FitAntennaLine, SurvivesManyCorruptedChannels) {
  // Paper Fig. 12 regime: ~16% of channels corrupted.
  Rng rng(51);
  const double k = 1.1e-7;
  std::vector<std::pair<std::size_t, double>> corruption;
  for (std::size_t i = 0; i < kNumChannels; i += 6) {
    corruption.push_back({i, rng.uniform(0.8, 1.8) *
                                 (rng.bernoulli(0.5) ? 1.0 : -1.0)});
  }
  const AntennaTrace trace = synthetic_trace(k, 2.5, corruption);
  const AntennaLine line = fit_antenna_line(trace, FittingConfig{});
  EXPECT_NEAR(line.fit.slope, k, 5e-11);
  EXPECT_NEAR(std::abs(ang_diff(line.fit.intercept, 2.5)), 0.0, 0.02);
}

TEST(FitAntennaLine, PiStaircaseDoesNotBreakSlope) {
  // A pi-level dwell error midway must not fold the fit (the failure mode
  // of sequential unwrapping).
  const double k = 9.9e-8;
  std::vector<std::pair<std::size_t, double>> corruption;
  corruption.push_back({25, kPi});
  const AntennaTrace trace = synthetic_trace(k, 0.8, corruption);
  const AntennaLine line = fit_antenna_line(trace, FittingConfig{});
  EXPECT_NEAR(line.fit.slope, k, 1e-11);
}

TEST(FitAntennaLine, ResidualsCoverAllChannels) {
  const AntennaTrace trace = synthetic_trace(9e-8, 1.0, {{7, 1.2}});
  const AntennaLine line = fit_antenna_line(trace, FittingConfig{});
  ASSERT_EQ(line.residual.size(), kNumChannels);
  // The corrupted channel's residual is big; clean ones are ~0 (mod pi).
  EXPECT_GT(std::abs(line.residual[7]), 0.5);
  EXPECT_NEAR(line.residual[8], 0.0, 1e-9);
}

TEST(FitAntennaLine, RandomScatterYieldsUnusableLine) {
  // Mobility-grade scatter: no linear consensus should be found, or only
  // a small accidental one.
  Rng rng(52);
  AntennaTrace trace;
  trace.antenna = 0;
  for (std::size_t i = 0; i < kNumChannels; ++i) {
    trace.frequency_hz.push_back(channel_frequency(i));
    trace.wrapped_phase.push_back(rng.uniform(0.0, kTwoPi));
  }
  const AntennaLine line = fit_antenna_line(trace, FittingConfig{});
  EXPECT_LT(line.fit.n, 25u);
}

TEST(FitAntennaLine, PlainModeFitsCleanData) {
  FittingConfig config;
  config.multipath_suppression = false;
  const double k = 8.8e-8;
  const AntennaTrace trace = synthetic_trace(k, 1.7);
  const AntennaLine line = fit_antenna_line(trace, config);
  EXPECT_NEAR(line.fit.slope, k, 1e-11);
  EXPECT_NEAR(std::abs(ang_diff(line.fit.intercept, 1.7)), 0.0, 1e-6);
  EXPECT_EQ(line.fit.n, kNumChannels);
}

TEST(FitAntennaLine, PlainModeDegradedByOutliers) {
  FittingConfig robust_config;
  FittingConfig plain_config;
  plain_config.multipath_suppression = false;
  const double k = 8.8e-8;
  const AntennaTrace trace =
      synthetic_trace(k, 1.7, {{10, 1.5}, {11, 1.5}, {30, -1.2}});
  const double robust_err =
      std::abs(fit_antenna_line(trace, robust_config).fit.slope - k);
  const double plain_err =
      std::abs(fit_antenna_line(trace, plain_config).fit.slope - k);
  EXPECT_LT(robust_err, plain_err);
}

TEST(FitAntennaLine, EndToEndAgainstSimulatorTruth) {
  const Scene scene = make_scene_2d(53);
  const TagHardware tag = make_tag_hardware("t", 53);
  const TagState state{Vec3{0.7, 1.3, 0.0}, planar_polarization(0.9), "oil"};
  Rng rng(54);
  const auto lines =
      testutil::fit_round(scene, noiseless_reader(), noiseless_channel(),
                          tag, state, 99, rng);
  ASSERT_EQ(lines.size(), 3u);
  const ChannelModel model(scene, noiseless_channel(), 99);
  std::vector<double> b_err;
  for (const auto& line : lines) {
    const double d =
        distance(scene.antennas[line.antenna].position, state.position);
    const double k_true = kSlopePerMeter * d + tag.kd +
                          scene.materials.get("oil").kt +
                          scene.antennas[line.antenna].kr;
    ASSERT_NEAR(line.fit.slope, k_true, 1e-10);
    // Intercept (mod 2*pi) = orientation + device + reader intercepts,
    // plus a small common-mode shift from the material signature's
    // intercept leakage (absorbed into bt downstream).
    const double b_true =
        model.orientation_phase(line.antenna, state) + tag.bd +
        scene.materials.get("oil").bt + scene.antennas[line.antenna].br;
    b_err.push_back(ang_diff(line.fit.intercept, b_true));
    ASSERT_NEAR(std::abs(b_err.back()), 0.0, 0.15);
  }
  // The common-mode part cancels in cross-antenna differences, which is
  // what the orientation solve actually consumes.
  ASSERT_NEAR(b_err[0], b_err[1], 0.01);
  ASSERT_NEAR(b_err[0], b_err[2], 0.01);
}

TEST(FitAntennaLine, TooFewChannelsThrows) {
  AntennaTrace trace;
  trace.antenna = 0;
  trace.frequency_hz = {903e6, 904e6};
  trace.wrapped_phase = {0.1, 0.2};
  EXPECT_THROW(fit_antenna_line(trace, FittingConfig{}), InvalidArgument);
}

TEST(FitAllAntennas, ShortTraceMarkedUnusable) {
  AntennaTrace good;
  good.antenna = 0;
  for (std::size_t i = 0; i < 10; ++i) {
    good.frequency_hz.push_back(channel_frequency(i));
    good.wrapped_phase.push_back(wrap_to_2pi(9e-8 * channel_frequency(i)));
  }
  AntennaTrace empty;
  empty.antenna = 1;
  const std::vector<AntennaTrace> traces{good, empty};
  const auto lines = fit_all_antennas(traces, FittingConfig{});
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_GE(lines[0].fit.n, 8u);
  EXPECT_EQ(lines[1].fit.n, 0u);
}

TEST(FitAntennaLine, BadSlopeBoundsThrow) {
  FittingConfig config;
  config.slope_min = 1.0;
  config.slope_max = 0.5;
  const AntennaTrace trace = synthetic_trace(9e-8, 1.0);
  EXPECT_THROW(fit_antenna_line(trace, config), InvalidArgument);
}

}  // namespace
}  // namespace rfp
