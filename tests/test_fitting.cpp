#include "rfp/core/fitting.hpp"

#include <cmath>
#include <limits>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "rfp/common/angles.hpp"
#include "rfp/common/constants.hpp"
#include "rfp/common/error.hpp"
#include "rfp/common/rng.hpp"
#include "rfp/dsp/linear_fit.hpp"
#include "rfp/dsp/stats.hpp"
#include "support/bits.hpp"
#include "support/core_test_util.hpp"

namespace rfp {
namespace {

using testutil::noiseless_channel;
using testutil::noiseless_reader;
using testutil::same_bits;

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

// ---- Same bits as the libm fit -------------------------------------------
// The fit below is fit_antenna_line as it was before the fast reductions:
// std::remainder and the std::fmod wrap, every slope candidate scored over
// every channel, fresh buffers per refinement round. fit_antenna_line must
// reproduce it bit for bit.

double libm_wrap_to_pi(double a) {
  double r = std::fmod(a + kPi, kTwoPi);
  if (r < 0.0) r += kTwoPi;
  if (r >= kTwoPi) r -= kTwoPi;
  return r - kPi;
}

double libm_parity_correction(std::span<const double> wrapped,
                              std::span<const double> predicted,
                              const std::vector<bool>* mask) {
  std::size_t votes_far = 0;
  std::size_t total = 0;
  for (std::size_t i = 0; i < wrapped.size(); ++i) {
    if (mask != nullptr && !(*mask)[i]) continue;
    const double delta = libm_wrap_to_pi(wrapped[i] - predicted[i]);
    if (std::abs(delta) > kPi / 2.0) ++votes_far;
    ++total;
  }
  return (total > 0 && 2 * votes_far > total) ? kPi : 0.0;
}

AntennaLine libm_fit(const AntennaTrace& trace, const FittingConfig& config) {
  const auto& f = trace.frequency_hz;
  const auto& wrapped = trace.wrapped_phase;
  const std::size_t n = f.size();
  AntennaLine line;
  line.antenna = trace.antenna;
  line.n_channels = n;
  line.frequency_hz = f;

  if (!config.multipath_suppression) {
    std::vector<double> y(wrapped.begin(), wrapped.end());
    for (std::size_t i = 1; i < n; ++i) {
      y[i] = y[i - 1] + std::remainder(wrapped[i] - y[i - 1], kPi);
    }
    const double parity = libm_parity_correction(wrapped, y, nullptr);
    for (double& v : y) v += parity;
    line.fit = fit_line(f, y);
    line.channel_inlier.assign(n, true);
    line.residual = residuals(line.fit, f, y);
    return line;
  }

  const double f_span = f.back() - f.front();
  Rng rng(mix_seed(config.seed, trace.antenna, n));
  double best_k = 0.0;
  double best_b = 0.0;
  std::size_t best_count = 0;
  double best_rss = std::numeric_limits<double>::infinity();
  for (std::size_t it = 0; it < config.ransac_iterations; ++it) {
    const std::size_t i = rng.uniform_index(n);
    const std::size_t j = rng.uniform_index(n);
    const double df = f[j] - f[i];
    if (std::abs(df) < 0.3 * f_span) continue;
    const double dtheta = std::remainder(wrapped[j] - wrapped[i], kPi);
    const double base = dtheta / df;
    const double step = kPi / std::abs(df);
    const double m_lo = std::ceil((config.slope_min - base) / step - 1e-9);
    const double m_hi = std::floor((config.slope_max - base) / step + 1e-9);
    for (double m = m_lo; m <= m_hi; m += 1.0) {
      const double k = base + m * step;
      const double b = wrapped[i] - k * f[i];
      std::size_t count = 0;
      double rss = 0.0;
      for (std::size_t c = 0; c < n; ++c) {
        const double r = std::remainder(wrapped[c] - (k * f[c] + b), kPi);
        if (std::abs(r) <= config.ransac_inlier_threshold) {
          ++count;
          rss += r * r;
        }
      }
      if (count > best_count || (count == best_count && rss < best_rss)) {
        best_count = count;
        best_rss = rss;
        best_k = k;
        best_b = b;
      }
    }
  }
  if (best_count < 3) {
    line.channel_inlier.assign(n, false);
    line.residual.assign(n, 0.0);
    return line;
  }

  std::vector<bool> inlier(n, false);
  std::vector<double> snapped(n, 0.0);
  double k = best_k;
  double b = best_b;
  LineFit fit;
  for (int round = 0; round < 3; ++round) {
    std::vector<double> abs_res(n);
    for (std::size_t c = 0; c < n; ++c) {
      const double pred = k * f[c] + b;
      const double r = std::remainder(wrapped[c] - pred, kPi);
      snapped[c] = pred + r;
      abs_res[c] = std::abs(r);
    }
    const double scale =
        std::max(config.min_residual_scale,
                 1.4826 * median(std::span<const double>(abs_res)));
    const double threshold = std::min(config.trim_threshold_factor * scale,
                                      config.max_inlier_residual);
    std::vector<double> fx, fy;
    for (std::size_t c = 0; c < n; ++c) {
      inlier[c] = abs_res[c] <= threshold;
      if (inlier[c]) {
        fx.push_back(f[c]);
        fy.push_back(snapped[c]);
      }
    }
    if (fx.size() < 3) {
      line.channel_inlier.assign(n, false);
      line.residual.assign(n, 0.0);
      return line;
    }
    fit = fit_line(fx, fy);
    k = fit.slope;
    b = fit.intercept;
  }
  std::vector<double> predicted(n);
  for (std::size_t c = 0; c < n; ++c) predicted[c] = k * f[c] + b;
  const double parity = libm_parity_correction(wrapped, predicted, &inlier);
  fit.intercept += parity;
  fit.y_mean += parity;
  line.fit = fit;
  line.channel_inlier = std::move(inlier);
  line.residual.resize(n);
  for (std::size_t c = 0; c < n; ++c) {
    line.residual[c] = std::remainder(wrapped[c] - (k * f[c] + b), kPi);
  }
  return line;
}


bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!same_bits(a[i], b[i])) return false;
  }
  return true;
}

void expect_same_line(const AntennaLine& got, const AntennaLine& want,
                      const std::string& what) {
  EXPECT_EQ(got.antenna, want.antenna) << what;
  EXPECT_EQ(got.n_channels, want.n_channels) << what;
  EXPECT_EQ(got.channel_inlier, want.channel_inlier) << what;
  EXPECT_TRUE(same_bits(got.residual, want.residual)) << what;
  EXPECT_TRUE(same_bits(got.frequency_hz, want.frequency_hz)) << what;
  const LineFit& g = got.fit;
  const LineFit& w = want.fit;
  EXPECT_EQ(g.n, w.n) << what;
  for (const auto& [name, gv, wv] :
       {std::tuple{"slope", g.slope, w.slope},
        std::tuple{"intercept", g.intercept, w.intercept},
        std::tuple{"x_mean", g.x_mean, w.x_mean},
        std::tuple{"y_mean", g.y_mean, w.y_mean},
        std::tuple{"rmse", g.rmse, w.rmse}, std::tuple{"r2", g.r2, w.r2},
        std::tuple{"slope_stderr", g.slope_stderr, w.slope_stderr},
        std::tuple{"mid_stderr", g.mid_stderr, w.mid_stderr}}) {
    EXPECT_TRUE(same_bits(gv, wv))
        << what << ": " << name << ' ' << std::hexfloat << gv << " vs " << wv;
  }
}

TEST(FitAntennaLine, BitwiseEqualToTheLibmFit) {
  // A randomized corpus of clean lines, multipath-corrupted channels,
  // random scatter, pi staircases and NaN phases, fitted robustly and
  // plainly, on the full channel plan and on sparse subsets.
  Rng rng(0xB175);
  for (int trial = 0; trial < 600; ++trial) {
    const int kind = trial % 5;
    AntennaTrace trace;
    trace.antenna = static_cast<std::size_t>(trial % 4);
    const bool sparse = (trial / 5) % 3 == 2;
    for (std::size_t i = 0; i < kNumChannels; ++i) {
      if (!sparse || rng.bernoulli(0.5)) {
        trace.frequency_hz.push_back(channel_frequency(i));
      }
    }
    if (trace.frequency_hz.size() < 3) continue;
    const std::size_t n = trace.frequency_hz.size();
    const double k = kSlopePerMeter * rng.uniform(0.2, 6.0) +
                     rng.uniform(-2e-8, 2e-8);
    const double b = rng.uniform(-20.0, 20.0);
    const double noise = rng.uniform(0.0, 0.08);
    std::size_t step_at = rng.uniform_index(n);
    for (std::size_t c = 0; c < n; ++c) {
      double phase = k * trace.frequency_hz[c] + b +
                     noise * (rng.uniform() - 0.5);
      if (kind == 1 && rng.bernoulli(0.2)) phase += rng.uniform(0.5, 2.6);
      if (kind == 2) phase = rng.uniform(0.0, kTwoPi);
      if (kind == 3) {
        if (c == step_at) step_at += 1 + rng.uniform_index(n / 3 + 1);
        if (c >= step_at) phase += kPi;  // a staircase of pi steps
        if (rng.bernoulli(0.1)) phase += kPi;
      }
      trace.wrapped_phase.push_back(wrap_to_2pi(phase));
    }
    if (kind == 4) {
      trace.wrapped_phase[rng.uniform_index(n)] =
          std::numeric_limits<double>::quiet_NaN();
    }
    FittingConfig config;
    config.seed = rng();
    config.multipath_suppression = trial % 7 != 6;
    expect_same_line(fit_antenna_line(trace, config), libm_fit(trace, config),
                     "trial " + std::to_string(trial));
    if (HasFailure()) return;
  }
}

}  // namespace
}  // namespace rfp
