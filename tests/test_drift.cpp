/// Drift self-calibration contract (DESIGN.md "Drift self-calibration"):
/// the rfsim drift fault model is deterministic and exposes its ground
/// truth, the DriftEstimator converges to the differential part of a
/// linear or random-walk drift and holds the closed-loop position error
/// near the drift-free baseline while the uncorrected pipeline degrades,
/// burst spikes are MAD-gated out of the EMA, re-survey alarms latch on
/// drifted ports and never on a drift-free corpus, ports beyond the
/// correctable bound fall into the degraded subset-solve path, and with
/// drift disabled every output stays byte-identical to the drift-free
/// pipeline across thread counts and ranking kernels.

#include "rfp/core/drift.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "rfp/common/angles.hpp"
#include "rfp/common/constants.hpp"
#include "rfp/common/error.hpp"
#include "rfp/common/rng.hpp"
#include "rfp/core/engine.hpp"
#include "rfp/core/streaming.hpp"
#include "rfp/exp/testbed.hpp"
#include "rfp/geom/frame.hpp"
#include "rfp/rfsim/faults.hpp"

namespace rfp {
namespace {

/// Exact (bitwise on doubles) equality of everything sensing computes.
/// No tolerances on purpose: bit-identity is the contract.
void expect_identical(const SensingResult& a, const SensingResult& b,
                      const std::string& where) {
  SCOPED_TRACE(where);
  EXPECT_EQ(a.valid, b.valid);
  EXPECT_EQ(a.reject_reason, b.reject_reason);
  EXPECT_EQ(a.grade, b.grade);
  EXPECT_EQ(a.excluded_antennas, b.excluded_antennas);
  EXPECT_EQ(a.unhealthy_antennas, b.unhealthy_antennas);
  EXPECT_EQ(a.position.x, b.position.x);
  EXPECT_EQ(a.position.y, b.position.y);
  EXPECT_EQ(a.position.z, b.position.z);
  EXPECT_EQ(a.position_residual, b.position_residual);
  EXPECT_EQ(a.alpha, b.alpha);
  EXPECT_EQ(a.polarization.x, b.polarization.x);
  EXPECT_EQ(a.polarization.y, b.polarization.y);
  EXPECT_EQ(a.polarization.z, b.polarization.z);
  EXPECT_EQ(a.orientation_residual, b.orientation_residual);
  EXPECT_EQ(a.kt, b.kt);
  EXPECT_EQ(a.bt, b.bt);
  EXPECT_EQ(a.material_signature, b.material_signature);
}

double median_of(std::vector<double> values) {
  const std::size_t n = values.size();
  EXPECT_GT(n, 0u);
  if (n == 0) return 0.0;
  std::nth_element(values.begin(), values.begin() + n / 2, values.end());
  return values[n / 2];
}

class DriftTest : public ::testing::Test {
 protected:
  DriftTest() {
    TestbedConfig config;
    config.n_antennas = 4;
    bed_ = std::make_unique<Testbed>(config);
    state_ = bed_->tag_state({0.8, 1.2}, 0.5, "glass");
  }

  /// The linear-drift fault profile: deployment time 10 s/round, both
  /// channels ramping. Across the 48-round loops below the slope offsets
  /// reach ~1e-8 rad/Hz (≈0.25 m of ranging bias on the worst port) and
  /// the intercepts ~0.2 rad — big enough to visibly damage poses, small
  /// enough to stay inside the correctable bounds.
  static FaultProfile linear_drift_profile() {
    FaultProfile profile;
    profile.drift_round_period_s = 10.0;
    profile.slope_drift_rate = 2e-11;
    profile.intercept_drift_rate = 4e-4;
    return profile;
  }

  /// Closed loop over `n_rounds` rounds of a *wandering* tag: optionally
  /// inject drift faults, optionally run the estimator. With the
  /// estimator in the loop, each round also reads the survey's reference
  /// transponder (same deployment instant — same drift state, fresh noise
  /// realization) and observes its residuals against the known
  /// ReferencePose. That is what makes the loop converge: residuals
  /// against a *solved* pose only see the (n-3)-dimensional part of the
  /// differential drift that the position fit could not absorb, so a
  /// traffic-only estimator is left with persistent blind spots, while
  /// the known pose exposes the full differential every round. The
  /// trajectory is seeded independently of the trial stream, so every
  /// loop walks the same poses and the comparisons are paired. Returns
  /// per-round position errors; invalid rounds count as 1 m so a
  /// drift-induced rejection registers as degradation rather than
  /// silently dropping out.
  std::vector<double> run_loop(const RfPrism& prism,
                               const FaultInjector* injector,
                               DriftEstimator* estimator,
                               std::size_t n_rounds,
                               std::uint64_t trial0 = 0) const {
    std::vector<double> errors;
    Rng rng(mix_seed(4242, 0xD21F7));
    const ReferencePose& ref = bed_->reference_pose();
    const TagState ref_state{ref.position, ref.polarization, "none"};
    for (std::size_t k = 0; k < n_rounds; ++k) {
      const std::uint64_t trial = trial0 + k;
      const Vec2 p{0.3 + 1.4 * rng.uniform(), 0.3 + 1.4 * rng.uniform()};
      const TagState state =
          bed_->tag_state(p, rng.uniform(0.0, kPi), "glass");
      RoundTrace round = bed_->collect(state, trial);
      if (injector != nullptr) round = injector->apply(round, trial);
      DriftCorrections snapshot;
      if (estimator != nullptr) snapshot = estimator->corrections();
      const SensingResult result =
          prism.sense(round, bed_->tag_id(), nullptr,
                      estimator != nullptr ? &snapshot : nullptr);
      if (estimator != nullptr) {
        RoundTrace ref_round = bed_->collect(ref_state, 100000 + trial);
        if (injector != nullptr) {
          ref_round = injector->apply(ref_round, trial);
        }
        const SensingResult ref_result =
            prism.sense(ref_round, bed_->tag_id(), nullptr, &snapshot);
        estimator->observe(ref_result, prism.config().geometry, &ref);
      }
      errors.push_back(result.valid
                           ? distance(result.position, state.position)
                           : 1.0);
    }
    return errors;
  }

  RfPrism drift_enabled_variant(DriftConfig config = {}) const {
    config.enable = true;
    RfPrismConfig prism_config = bed_->prism().config();
    prism_config.disentangle.drift = config;
    return bed_->make_pipeline_variant(std::move(prism_config));
  }

  std::unique_ptr<Testbed> bed_;
  TagState state_;
};

// ---------------------------------------------------------------------------
// rfsim fault model

TEST_F(DriftTest, DriftFaultsDeterministicWithGroundTruthExposed) {
  FaultProfile profile = linear_drift_profile();
  FaultInjector injector(profile);
  const RoundTrace round = bed_->collect(state_, 40);

  const RoundTrace a = injector.apply(round, 40);
  const RoundTrace b = injector.apply(round, 40);
  ASSERT_EQ(a.dwells.size(), b.dwells.size());
  for (std::size_t i = 0; i < a.dwells.size(); ++i) {
    EXPECT_EQ(a.dwells[i].phases, b.dwells[i].phases);
  }
  EXPECT_GT(injector.last_summary().reads_drifted, 0u);

  // Ground truth matches the perturbation actually applied: undoing
  // dk*f + db read-by-read recovers the clean round.
  std::vector<double> dk, db;
  injector.drift_offsets(round.n_antennas, 40, dk, db);
  ASSERT_EQ(dk.size(), round.n_antennas);
  for (std::size_t d = 0; d < a.dwells.size(); ++d) {
    const std::size_t ant = a.dwells[d].antenna;
    const double offset = dk[ant] * a.dwells[d].frequency_hz + db[ant];
    for (std::size_t i = 0; i < a.dwells[d].phases.size(); ++i) {
      EXPECT_NEAR(
          ang_diff(a.dwells[d].phases[i] - offset, round.dwells[d].phases[i]),
          0.0, 1e-9)
          << "dwell " << d << " read " << i;
    }
  }

  // Drift grows with deployment time and is differential across ports.
  std::vector<double> dk_late, db_late;
  injector.drift_offsets(round.n_antennas, 80, dk_late, db_late);
  double max_early = 0.0, max_late = 0.0;
  for (std::size_t ant = 0; ant < round.n_antennas; ++ant) {
    max_early = std::max(max_early, std::abs(dk[ant]));
    max_late = std::max(max_late, std::abs(dk_late[ant]));
  }
  EXPECT_GT(max_early, 0.0);
  EXPECT_GT(max_late, 1.5 * max_early);

  // A drift-free profile exposes all-zero ground truth and never touches
  // the round.
  FaultInjector clean{FaultProfile{}};
  clean.drift_offsets(round.n_antennas, 40, dk, db);
  for (double v : dk) EXPECT_EQ(v, 0.0);
  for (double v : db) EXPECT_EQ(v, 0.0);
  const RoundTrace untouched = clean.apply(round, 40);
  for (std::size_t i = 0; i < untouched.dwells.size(); ++i) {
    EXPECT_EQ(untouched.dwells[i].phases, round.dwells[i].phases);
  }

  // Restricting drift_antennas leaves the other ports clean.
  profile.drift_antennas = {1};
  FaultInjector partial(profile);
  partial.drift_offsets(round.n_antennas, 40, dk, db);
  for (std::size_t ant = 0; ant < round.n_antennas; ++ant) {
    if (ant == 1) {
      EXPECT_NE(dk[ant], 0.0);
    } else {
      EXPECT_EQ(dk[ant], 0.0);
      EXPECT_EQ(db[ant], 0.0);
    }
  }
}

TEST_F(DriftTest, EstimatorValidatesConfig) {
  EXPECT_THROW(DriftEstimator(0), InvalidArgument);
  DriftConfig config;
  config.ema_alpha = 0.0;
  EXPECT_THROW(DriftEstimator(4, config), InvalidArgument);
  config = {};
  config.warmup_rounds = 0;
  EXPECT_THROW(DriftEstimator(4, config), InvalidArgument);
  config = {};
  config.mad_gate = -1.0;
  EXPECT_THROW(DriftEstimator(4, config), InvalidArgument);
  config = {};
  config.max_correct_slope = 0.0;
  EXPECT_THROW(DriftEstimator(4, config), InvalidArgument);
}

// ---------------------------------------------------------------------------
// Closed-loop convergence

TEST_F(DriftTest, EstimatorConvergesToDifferentialLinearDrift) {
  const FaultInjector injector(linear_drift_profile());
  const RfPrism prism = drift_enabled_variant();
  DriftEstimator estimator(4, prism.config().disentangle.drift);

  constexpr std::size_t kRounds = 48;
  run_loop(prism, &injector, &estimator, kRounds);
  EXPECT_GE(estimator.stats().rounds_observed, kRounds / 2);
  EXPECT_TRUE(estimator.stats().warmed_up);

  // The estimator can only see the zero-common-mode part of the injected
  // drift (the solver absorbs the mean into kt/bt), so compare against
  // the mean-removed ground truth at the last trial. The EMA lags a ramp
  // by ~(1/alpha - 1) rounds, hence the fractional tolerance.
  std::vector<double> dk, db;
  injector.drift_offsets(4, kRounds - 1, dk, db);
  double dk_mean = 0.0, db_mean = 0.0;
  for (std::size_t a = 0; a < 4; ++a) {
    dk_mean += dk[a] / 4.0;
    db_mean += db[a] / 4.0;
  }
  double dk_span = 0.0, db_span = 0.0;
  for (std::size_t a = 0; a < 4; ++a) {
    dk_span = std::max(dk_span, std::abs(dk[a] - dk_mean));
    db_span = std::max(db_span, std::abs(db[a] - db_mean));
  }
  ASSERT_GT(dk_span, 2e-9);  // the scenario actually drifts
  ASSERT_GT(db_span, 0.05);
  for (std::size_t a = 0; a < 4; ++a) {
    EXPECT_NEAR(estimator.state()[a].slope, dk[a] - dk_mean,
                0.35 * dk_span + 5e-10)
        << "antenna " << a;
    EXPECT_NEAR(estimator.state()[a].intercept, db[a] - db_mean,
                0.35 * db_span + 0.02)
        << "antenna " << a;
  }
}

TEST_F(DriftTest, CorrectionHoldsErrorNearBaselineUnderLinearDrift) {
  const FaultInjector injector(linear_drift_profile());
  const RfPrism plain = bed_->prism();
  const RfPrism corrected = drift_enabled_variant();
  DriftEstimator estimator(4, corrected.config().disentangle.drift);

  constexpr std::size_t kRounds = 48;
  const std::vector<double> baseline =
      run_loop(plain, nullptr, nullptr, kRounds);
  const std::vector<double> uncorrected =
      run_loop(plain, &injector, nullptr, kRounds);
  const std::vector<double> with_drift =
      run_loop(corrected, &injector, &estimator, kRounds);

  // Judge the steady state: the last third, where the drift is largest
  // and the estimator is long past warm-up.
  const std::size_t tail = kRounds / 3;
  const auto tail_median = [&](const std::vector<double>& e) {
    return median_of(std::vector<double>(e.end() - tail, e.end()));
  };
  const double base = tail_median(baseline);
  const double raw = tail_median(uncorrected);
  const double fixed = tail_median(with_drift);

  // ISSUE acceptance: uncorrected blows up (>= 2x), corrected stays
  // within 25% of the drift-free baseline (plus a small absolute floor —
  // the baseline error is a few millimetres).
  EXPECT_GT(raw, 2.0 * base) << "base " << base << " raw " << raw;
  EXPECT_LT(fixed, 1.25 * base + 0.01)
      << "base " << base << " corrected " << fixed;
}

TEST_F(DriftTest, CorrectionTracksRandomWalkDrift) {
  FaultProfile profile;
  profile.drift_round_period_s = 10.0;
  profile.slope_drift_walk = 8e-10;
  profile.intercept_drift_walk = 0.018;
  const FaultInjector injector(profile);
  const RfPrism plain = bed_->prism();
  // A walk's innovation is itself a walk step, so smoothing hard only adds
  // lag: track it with a snappier EMA than the ramp default.
  DriftConfig drift;
  drift.ema_alpha = 0.4;
  const RfPrism corrected = drift_enabled_variant(drift);
  DriftEstimator estimator(4, corrected.config().disentangle.drift);

  constexpr std::size_t kRounds = 96;
  const std::vector<double> baseline =
      run_loop(plain, nullptr, nullptr, kRounds);
  const std::vector<double> uncorrected =
      run_loop(plain, &injector, nullptr, kRounds);
  const std::vector<double> with_drift =
      run_loop(corrected, &injector, &estimator, kRounds);

  const std::size_t tail = kRounds / 2;
  const auto tail_median = [&](const std::vector<double>& e) {
    return median_of(std::vector<double>(e.end() - tail, e.end()));
  };
  // A random walk cannot be tracked as tightly as a ramp (the innovation
  // is itself a walk step), so the bound is looser: corrected error well
  // under the uncorrected error and within a few centimetres of baseline.
  EXPECT_GT(tail_median(uncorrected), 2.0 * tail_median(baseline));
  EXPECT_LT(tail_median(with_drift), 0.6 * tail_median(uncorrected));
  EXPECT_LT(tail_median(with_drift), tail_median(baseline) + 0.05);
}

// ---------------------------------------------------------------------------
// Outlier gate + alarms (synthetic observe()-level rounds)

/// Exact AntennaLines for a pose with per-port drift baked in: slope
/// k_i = C*d_i + kt + dk_i, intercept b_i = orient_i + bt + db_i.
SensingResult synthetic_result(const DeploymentGeometry& geometry,
                               Vec3 position, Vec3 polarization,
                               const std::vector<double>& dk,
                               const std::vector<double>& db) {
  SensingResult result;
  result.valid = true;
  result.grade = SensingGrade::kFull;
  result.position = position;
  result.polarization = polarization;
  for (std::size_t i = 0; i < geometry.n_antennas(); ++i) {
    AntennaLine line;
    line.antenna = i;
    const double d = distance(geometry.antenna_positions[i], position);
    line.fit.slope = kSlopePerMeter * d + 3e-9 + dk[i];
    line.fit.intercept = wrap_to_2pi(
        polarization_phase_toward(geometry.antenna_frames[i],
                                  geometry.antenna_positions[i], position,
                                  polarization) +
        0.8 + db[i]);
    line.fit.n = kNumChannels;
    line.n_channels = kNumChannels;
    result.lines.push_back(line);
  }
  return result;
}

TEST_F(DriftTest, MadGateRejectsBurstSpikesWithoutPoisoningTheEma) {
  const DeploymentGeometry& geometry = bed_->prism().config().geometry;
  const Vec3 position{0.8, 1.2, geometry.tag_plane_z};
  const Vec3 polarization{0.6, 0.8, 0.0};
  // Zero-mean offsets, small enough that the honest step on round 0
  // clears the MAD gate (the floor sigma bounds it from below).
  const std::vector<double> dk = {1.2e-9, -0.8e-9, 0.4e-9, -0.8e-9};
  const std::vector<double> db = {0.2, -0.1, 0.05, -0.15};

  DriftConfig config;
  config.enable = true;
  DriftEstimator estimator(4, config);
  constexpr std::size_t kRounds = 40;
  for (std::size_t k = 0; k < kRounds; ++k) {
    std::vector<double> dk_round = dk;
    if (k % 5 == 4) dk_round[2] += 5e-7;  // burst spike on port 2
    estimator.observe(
        synthetic_result(geometry, position, polarization, dk_round, db),
        geometry);
  }

  const DriftStats stats = estimator.stats();
  EXPECT_EQ(stats.rounds_observed, kRounds);
  EXPECT_GE(stats.outliers_rejected, kRounds / 5 - 1);
  // The spiked port's estimate converged to the truth, not the spike: a
  // single leaked spike would leave alpha * 5e-7 = 7.5e-8 behind.
  for (std::size_t a = 0; a < 4; ++a) {
    EXPECT_NEAR(estimator.state()[a].slope, dk[a], 4e-10) << "antenna " << a;
    EXPECT_NEAR(estimator.state()[a].intercept, db[a], 5e-3)
        << "antenna " << a;
  }
}

TEST_F(DriftTest, AlarmLatchesOnDriftedPortAndNeverOnCleanCorpus) {
  const DeploymentGeometry& geometry = bed_->prism().config().geometry;
  const Vec3 position{0.8, 1.2, geometry.tag_plane_z};
  const Vec3 polarization{0.6, 0.8, 0.0};
  // Port 1 ramps far beyond alarm_slope = 8e-9 over 60 rounds, then holds
  // (so the EMA converges and the confidence spread decays); the other
  // ports balance the mean, matching the differential view a real solve
  // would expose. A ramp — not a step — because a sudden jump is
  // indistinguishable from a burst spike and gets MAD-gated.
  const std::vector<double> dk = {-5e-9, 1.5e-8, -5e-9, -5e-9};
  const std::vector<double> db(4, 0.0);

  DriftConfig config;
  config.enable = true;
  DriftEstimator estimator(4, config);
  for (std::size_t k = 0; k < 80; ++k) {
    const double ramp = std::min(1.0, static_cast<double>(k) / 60.0);
    std::vector<double> dk_round = dk;
    for (double& v : dk_round) v *= ramp;
    estimator.observe(
        synthetic_result(geometry, position, polarization, dk_round, db),
        geometry);
  }
  const std::vector<ReSurveyAlarm> alarms = estimator.alarms();
  ASSERT_EQ(alarms.size(), 1u);
  EXPECT_EQ(alarms[0].antenna, 1u);
  EXPECT_NEAR(alarms[0].slope_drift, 1.5e-8, 2e-9);
  EXPECT_GE(alarms[0].updates, config.alarm_min_updates);
  EXPECT_EQ(estimator.stats().alarms_raised, 1u);
  EXPECT_EQ(estimator.stats().alarms_active, 1u);

  // A drift-free corpus (real rounds, honest noise) never alarms.
  const RfPrism prism = drift_enabled_variant();
  DriftEstimator clean(4, prism.config().disentangle.drift);
  run_loop(prism, nullptr, &clean, 40);
  EXPECT_GE(clean.stats().rounds_observed, 30u);
  EXPECT_TRUE(clean.alarms().empty());
  EXPECT_EQ(clean.stats().alarms_raised, 0u);
  // And its corrections stay tiny — it is not "correcting" noise into
  // a bias anywhere near the alarm scale.
  for (std::size_t a = 0; a < 4; ++a) {
    EXPECT_LT(std::abs(clean.state()[a].slope), 2e-9) << "antenna " << a;
  }
}

// ---------------------------------------------------------------------------
// Pipeline integration

TEST_F(DriftTest, DroppedPortFallsIntoDegradedSubsetSolve) {
  const RfPrism prism = drift_enabled_variant();
  DriftCorrections corrections;
  corrections.active = true;
  corrections.slope.assign(4, 0.0);
  corrections.intercept.assign(4, 0.0);
  corrections.drop.assign(4, false);
  corrections.drop[2] = true;

  const RoundTrace round = bed_->collect(state_, 7);
  const SensingResult result =
      prism.sense(round, bed_->tag_id(), nullptr, &corrections);
  ASSERT_TRUE(result.valid);
  EXPECT_EQ(result.grade, SensingGrade::kDegraded);
  EXPECT_EQ(result.excluded_antennas, std::vector<std::size_t>{2});
  EXPECT_LT(distance(result.position, state_.position), 0.3);
}

TEST_F(DriftTest, DriftOffIsByteIdenticalAcrossThreadsAndKernels) {
  // Mixed corpus (clean + heavily faulted) so identity is proven across
  // full, degraded, and rejected grades.
  std::vector<RoundTrace> corpus;
  Rng rng(mix_seed(11, 0xD21F7));
  const auto materials = paper_materials();
  const FaultInjector injector(FaultProfile::scaled(0.8, mix_seed(11, 0xFA17)));
  for (std::size_t k = 0; k < 10; ++k) {
    const Vec2 p{0.3 + 1.4 * rng.uniform(), 0.3 + 1.4 * rng.uniform()};
    const TagState state = bed_->tag_state(p, rng.uniform(0.0, kPi),
                                           materials[k % materials.size()]);
    RoundTrace round = bed_->collect(state, 7000 + k);
    if (k >= 5) round = injector.apply(round, 7000 + k);
    corpus.push_back(std::move(round));
  }

  const RfPrism& plain = bed_->prism();
  const RfPrism enabled = drift_enabled_variant();
  // Cold estimator: corrections exist but are inactive until warm-up.
  const DriftEstimator cold(4, enabled.config().disentangle.drift);
  const DriftCorrections inactive = cold.corrections();
  ASSERT_FALSE(inactive.active);

  // Forged *active* corrections against a config with drift disabled:
  // the config master switch wins.
  DriftCorrections forged;
  forged.active = true;
  forged.slope.assign(4, 1e-8);
  forged.intercept.assign(4, 0.3);
  forged.drop.assign(4, false);

  for (std::size_t k = 0; k < corpus.size(); ++k) {
    const SensingResult reference = plain.sense(corpus[k], bed_->tag_id());
    expect_identical(enabled.sense(corpus[k], bed_->tag_id()), reference,
                     "null snapshot, round " + std::to_string(k));
    expect_identical(
        enabled.sense(corpus[k], bed_->tag_id(), nullptr, &inactive),
        reference, "inactive snapshot, round " + std::to_string(k));
    expect_identical(plain.sense(corpus[k], bed_->tag_id(), nullptr, &forged),
                     reference,
                     "config off beats active snapshot, round " +
                         std::to_string(k));
  }

  // Engine paths, threads 1/2/8: drift-enabled config with an inactive
  // snapshot stays identical to the sequential drift-free reference.
  for (const std::size_t threads : {1u, 2u, 8u}) {
    SensingEngine engine(threads);
    const std::vector<SensingResult> batch = enabled.sense_batch(
        corpus, engine, bed_->tag_id(), nullptr, &inactive);
    ASSERT_EQ(batch.size(), corpus.size());
    for (std::size_t k = 0; k < corpus.size(); ++k) {
      expect_identical(batch[k], plain.sense(corpus[k], bed_->tag_id()),
                       "threads " + std::to_string(threads) + ", round " +
                           std::to_string(k));
    }
  }
  // Ranking kernels: this suite carries the simd label, so the
  // forced-scalar CI lanes repeat every check above on the scalar kernels.
}

TEST_F(DriftTest, ActiveCorrectionsAreDeterministicAcrossEnginePaths) {
  // Warm an estimator on drifted rounds, then check the drift-ON solve
  // itself is bit-identical between the sequential and batch paths for
  // any thread count (the same one-snapshot-per-batch discipline the
  // server and StreamingSensor use).
  const FaultInjector injector(linear_drift_profile());
  const RfPrism prism = drift_enabled_variant();
  DriftEstimator estimator(4, prism.config().disentangle.drift);
  run_loop(prism, &injector, &estimator, 24);
  const DriftCorrections snapshot = estimator.corrections();
  ASSERT_TRUE(snapshot.active);

  std::vector<RoundTrace> corpus;
  for (std::size_t k = 0; k < 6; ++k) {
    corpus.push_back(injector.apply(bed_->collect(state_, 24 + k), 24 + k));
  }
  std::vector<SensingResult> reference;
  for (const RoundTrace& round : corpus) {
    reference.push_back(
        prism.sense(round, bed_->tag_id(), nullptr, &snapshot));
  }
  for (const std::size_t threads : {1u, 2u, 8u}) {
    SensingEngine engine(threads);
    const std::vector<SensingResult> batch = prism.sense_batch(
        corpus, engine, bed_->tag_id(), nullptr, &snapshot);
    for (std::size_t k = 0; k < corpus.size(); ++k) {
      expect_identical(batch[k], reference[k],
                       "threads " + std::to_string(threads) + ", round " +
                           std::to_string(k));
    }
  }
}

// ---------------------------------------------------------------------------
// Owners: SensingEngine + StreamingSensor

TEST_F(DriftTest, EngineOwnsASharedEstimator) {
  const RfPrism prism = drift_enabled_variant();
  SensingEngine engine(2);
  EXPECT_FALSE(engine.drift_enabled());
  EXPECT_FALSE(engine.drift_corrections().active);

  engine.enable_drift(4, prism.config().disentangle.drift);
  ASSERT_TRUE(engine.drift_enabled());

  const FaultInjector injector(linear_drift_profile());
  for (std::size_t k = 0; k < 24; ++k) {
    const RoundTrace round =
        injector.apply(bed_->collect(state_, k), k);
    const DriftCorrections snapshot = engine.drift_corrections();
    const SensingResult result =
        prism.sense(round, engine, bed_->tag_id(), nullptr, &snapshot);
    engine.observe_drift(result, prism.config().geometry);
  }
  EXPECT_GE(engine.drift_stats().rounds_observed, 12u);
  EXPECT_TRUE(engine.drift_corrections().active);
  bool any_correction = false;
  engine.with_drift([&](DriftEstimator& estimator) {
    for (const AntennaDriftState& st : estimator.state()) {
      if (std::abs(st.slope) > 1e-9) any_correction = true;
    }
  });
  EXPECT_TRUE(any_correction);
}

TEST_F(DriftTest, StreamingSensorRunsTheLoopAutomatically) {
  RfPrismConfig config = bed_->prism().config();
  config.disentangle.drift.enable = true;
  const RfPrism prism = bed_->make_pipeline_variant(std::move(config));
  StreamingSensor sensor(prism);
  ASSERT_NE(sensor.drift(), nullptr);

  const FaultInjector injector(linear_drift_profile());
  std::size_t emitted_total = 0;
  for (std::size_t k = 0; k < 24; ++k) {
    const RoundTrace round = injector.apply(bed_->collect(state_, k), k);
    sensor.push(round_to_reads(round, bed_->tag_id()));
    emitted_total += sensor.poll().size();
  }
  EXPECT_GT(emitted_total, 0u);
  EXPECT_GE(sensor.drift_stats().rounds_observed, 12u);
  EXPECT_TRUE(sensor.drift()->corrections().active);

  sensor.clear();
  EXPECT_EQ(sensor.drift_stats().rounds_observed, 0u);

  // A sensor over a drift-disabled pipeline owns no estimator at all.
  StreamingSensor plain_sensor(bed_->prism());
  EXPECT_EQ(plain_sensor.drift(), nullptr);
  EXPECT_EQ(plain_sensor.drift_stats().rounds_observed, 0u);
}

// ---------------------------------------------------------------------------
// State restore (the calibration_io round-trip is in test_io.cpp)

TEST_F(DriftTest, RestoreAdoptsStateAndValidates) {
  DriftConfig config;
  config.enable = true;
  DriftEstimator estimator(4, config);

  std::vector<AntennaDriftState> state(4);
  state[1].slope = 5e-9;
  state[1].updates = 20;
  state[1].alarmed = true;
  estimator.restore(state, 30);
  EXPECT_EQ(estimator.rounds_observed(), 30u);
  EXPECT_EQ(estimator.state()[1].slope, 5e-9);
  EXPECT_EQ(estimator.alarms().size(), 1u);
  EXPECT_TRUE(estimator.corrections().active);  // past warm-up already

  EXPECT_THROW(estimator.restore(std::vector<AntennaDriftState>(3), 1),
               InvalidArgument);
  std::vector<AntennaDriftState> bad(4);
  bad[0].intercept = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(estimator.restore(bad, 1), InvalidArgument);

  estimator.reset();
  EXPECT_EQ(estimator.rounds_observed(), 0u);
  EXPECT_TRUE(estimator.alarms().empty());
  EXPECT_FALSE(estimator.corrections().active);
}

}  // namespace
}  // namespace rfp
