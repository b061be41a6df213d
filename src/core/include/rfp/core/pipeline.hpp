#pragma once

#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "rfp/common/workspace.hpp"
#include "rfp/core/antenna_health.hpp"
#include "rfp/core/calibration.hpp"
#include "rfp/core/disentangle.hpp"
#include "rfp/core/drift.hpp"
#include "rfp/core/error_detector.hpp"
#include "rfp/core/fitting.hpp"
#include "rfp/core/preprocess.hpp"
#include "rfp/core/types.hpp"

/// \file pipeline.hpp
/// The RF-Prism facade: pre-processing -> per-antenna linear fitting (with
/// multipath channel selection) -> error detection -> phase disentangling
/// -> feature extraction, exactly the three-module architecture of paper
/// Fig. 2. This is the main public entry point of the library.
///
/// Typical use:
///
///   RfPrism prism(config);
///   prism.calibrate_reader(reference_round, reference_pose);   // once
///   prism.calibrate_tag("tag-7", bare_round, reference_pose);  // per tag
///   SensingResult r = prism.sense(round, "tag-7");
///   if (r.valid) { use r.position / r.alpha / material features }

namespace rfp {

class SensingEngine;

/// Everything the pipeline needs to know about the deployment and its own
/// thresholds. Geometry is *as measured* — the pipeline never touches the
/// simulator's ground truth.
struct RfPrismConfig {
  DeploymentGeometry geometry;
  FittingConfig fitting;
  ErrorDetectorConfig error_detector;
  DisentangleConfig disentangle;
};

/// Versatile phase-disentangling sensor. Move-only: it owns its
/// deployment's drift estimate, which a copy could not share.
class RfPrism {
 public:
  /// Throws InvalidArgument unless the geometry has >= 3 antennas with
  /// matching frames (>= 4 in 3D mode), or when drift is enabled with
  /// out-of-range tuning.
  explicit RfPrism(RfPrismConfig config);

  /// One-time antenna-port equalization (paper §IV-C): `round` must be
  /// collected with a bare reference tag held at `reference`.
  void calibrate_reader(const RoundTrace& round,
                        const ReferencePose& reference);

  /// Per-tag theta_device0 measurement (paper §V-B): `round` must be
  /// collected with the bare tag `tag_id` at `reference`. Requires reader
  /// calibration to have been performed first (throws Error otherwise).
  void calibrate_tag(const std::string& tag_id, const RoundTrace& round,
                     const ReferencePose& reference);

  /// Full sensing pass over one hop round: a batch of one through
  /// sense_batch(), on the calling thread. Never throws on bad *data*
  /// (the result carries valid=false + reason); throws InvalidArgument on
  /// structurally wrong input (antenna count mismatch).
  ///
  /// `tag_id` selects the theta_device0 calibration for material features;
  /// pass an empty id (or an uncalibrated tag's id) to skip device
  /// compensation — localization and orientation are unaffected
  /// (calibration-free by design).
  ///
  /// Each port's this-round data passes the error detector's per-antenna
  /// gate (paper §V-C) or is excluded. `health` optionally supplies
  /// long-horizon port state: quarantined ports are excluded from the
  /// solve up-front (the monitor is read-only here — callers feed results
  /// back via observe_round). Rounds where the excluded ports leave at
  /// least the minimum solvable antenna count (3 in 2D, 4 in 3D) produce a
  /// kDegraded result on the healthy subset; with fewer healthy ports the
  /// round is rejected with RejectReason::kAntennaHealth.
  SensingResult sense(const RoundTrace& round, const std::string& tag_id = {},
                      const AntennaHealthMonitor* health = nullptr) const;

  /// sense() with the Stage-A grid scan fanned out over the engine's pool.
  /// Bit-identical to sense() for any thread count.
  SensingResult sense(const RoundTrace& round, SensingEngine& engine,
                      const std::string& tag_id = {},
                      const AntennaHealthMonitor* health = nullptr) const;

  /// sense_batch() below with one `tag_id` for every round.
  std::vector<SensingResult> sense_batch(
      std::span<const RoundTrace> rounds, SensingEngine& engine,
      const std::string& tag_id = {},
      const AntennaHealthMonitor* health = nullptr) const;

  /// Batch sensing with per-round tag ids, the general form of every
  /// entry point above (they all run the same body): each round is fitted,
  /// gated, position-solved, orientation-solved and graded start to finish
  /// in one task. With an `engine` the rounds fan out over its pool, one
  /// round per task; with a null `engine` they run in a loop on the
  /// calling thread. Every round's distance table is the one
  /// GridGeometryCache::shared() entry acquired once per call. Results
  /// come back in input order and are bit-identical to sensing each round
  /// alone — including degraded/rejected grades — regardless of the
  /// engine's thread count or of other threads calling into the same
  /// engine.
  ///
  /// `tag_ids` is empty or one id per round (anything else throws
  /// InvalidArgument).
  ///
  /// With `disentangle.drift.enable` set, the drift corrections are
  /// snapshotted once per call, so every round of the batch sees the same
  /// estimate: per-antenna slope/intercept corrections are subtracted
  /// from the calibrated lines before the solve, and ports the estimate
  /// marks dropped join the degraded subset path like gate failures.
  /// Until the estimator warms up (and with drift disabled, the default)
  /// results are byte-identical to the drift-free pipeline.
  ///
  /// Exceptions from structurally wrong rounds (antenna count mismatch)
  /// propagate: the first failing round *in input order* wins.
  std::vector<SensingResult> sense_batch(
      std::span<const RoundTrace> rounds,
      std::span<const std::string> tag_ids, SensingEngine* engine,
      const AntennaHealthMonitor* health = nullptr) const;

  // ---- Online drift self-calibration (drift.hpp) ------------------------
  // The prism owns its deployment's one estimate, built when
  // `disentangle.drift.enable` is set. Every caller that senses the
  // deployment (rfpd's workers, streaming sessions, CLI loops) feeds it
  // through the same const prism, so the estimator is locked internally.
  // With drift disabled each of these is a no-op or an all-zero value.

  bool drift_enabled() const { return drift_ != nullptr; }

  /// Value snapshot of the current corrections (inactive until warm-up).
  DriftCorrections drift_corrections() const;

  /// Feed a sensed round back into the estimate. Rounds read from a
  /// reference transponder at a known pose pass it as `reference` for
  /// fully-observable residuals (see DriftEstimator::observe).
  void observe_drift(const SensingResult& result,
                     const ReferencePose* reference = nullptr) const;

  DriftStats drift_stats() const;
  std::vector<ReSurveyAlarm> drift_alarms() const;

  /// Access the estimator under its lock (per-port state, restore,
  /// tests). `fn` must not call back into this prism's drift API.
  void with_drift(const std::function<void(DriftEstimator&)>& fn) const;

  const RfPrismConfig& config() const { return config_; }
  const CalibrationDB& calibrations() const { return db_; }
  bool reader_calibrated() const { return db_.reader().has_value(); }

  /// Adopt calibrations measured by another pipeline instance over the
  /// same deployment (e.g. a variant with different solver thresholds).
  /// Throws InvalidArgument when the reader calibration's antenna count
  /// does not match this geometry.
  void import_calibrations(const CalibrationDB& db);

 private:
  std::vector<AntennaLine> fit_round(const RoundTrace& round,
                                     bool apply_reader_cal) const;

  /// One round start to finish: fit, health gating, drift subtraction and
  /// error detection, then the position solve on `table` (null when the
  /// grid is degenerate: the round fails as a solver failure), then
  /// orientation, features, calibration and grading.
  SensingResult sense_round(const RoundTrace& round, const std::string& tag_id,
                            const AntennaHealthMonitor* health,
                            const DriftCorrections& drift,
                            const GridTable* table, ThreadPool* pool) const;

  /// The one sensing body behind every public entry point: sense_round
  /// per round, on the engine's pool or the calling thread. `tag_ids`
  /// empty means `shared_tag_id` for every round.
  std::vector<SensingResult> sense_batch_impl(
      std::span<const RoundTrace> rounds,
      std::span<const std::string> tag_ids, const std::string& shared_tag_id,
      SensingEngine* engine, const AntennaHealthMonitor* health) const;

  struct LockedDrift {
    LockedDrift(std::size_t n_antennas, const DriftConfig& config)
        : estimator(n_antennas, config) {}
    std::mutex mutex;
    DriftEstimator estimator;
  };

  RfPrismConfig config_;
  CalibrationDB db_;
  std::unique_ptr<LockedDrift> drift_;  ///< null unless drift is enabled
};

}  // namespace rfp
