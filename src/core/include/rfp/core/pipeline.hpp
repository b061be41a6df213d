#pragma once

#include <optional>
#include <span>
#include <string>
#include <vector>

#include "rfp/common/workspace.hpp"
#include "rfp/core/antenna_health.hpp"
#include "rfp/core/calibration.hpp"
#include "rfp/core/disentangle.hpp"
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
class GridGeometryCache;

/// Everything the pipeline needs to know about the deployment and its own
/// thresholds. Geometry is *as measured* — the pipeline never touches the
/// simulator's ground truth.
struct RfPrismConfig {
  DeploymentGeometry geometry;
  FittingConfig fitting;
  ErrorDetectorConfig error_detector;
  DisentangleConfig disentangle;

  /// Run the error detector (paper §V-C). Disable to study its effect.
  bool enable_error_detector = true;

  /// Degraded-mode sensing: when some antennas fail the per-round health
  /// gate but at least the minimum solvable count (3 in 2D, 4 in 3D)
  /// remain healthy, re-fit on the healthy subset and emit a kDegraded
  /// result instead of rejecting the round. Disable to restore strict
  /// all-or-nothing behaviour.
  bool enable_degraded_mode = true;
};

/// Versatile phase-disentangling sensor.
class RfPrism {
 public:
  /// Throws InvalidArgument unless the geometry has >= 3 antennas with
  /// matching frames (>= 4 in 3D mode).
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

  /// Full sensing pass over one hop round. Never throws on bad *data*
  /// (the result carries valid=false + reason); throws InvalidArgument on
  /// structurally wrong input (antenna count mismatch).
  ///
  /// `tag_id` selects the theta_device0 calibration for material features;
  /// pass an empty id (or an uncalibrated tag's id) to skip device
  /// compensation — localization and orientation are unaffected
  /// (calibration-free by design).
  ///
  /// `health` optionally supplies long-horizon port state: quarantined
  /// ports are excluded from the solve up-front (the monitor is read-only
  /// here — callers feed results back via observe_round). With degraded
  /// mode enabled (see RfPrismConfig), rounds where unhealthy/quarantined
  /// ports leave at least the minimum solvable antenna count produce a
  /// kDegraded result on the healthy subset; with fewer healthy ports the
  /// round is rejected with RejectReason::kAntennaHealth.
  ///
  /// `drift` optionally supplies a DriftEstimator's correction snapshot
  /// (drift.hpp). It only takes effect when the config's
  /// `disentangle.drift.enable` is set *and* the snapshot is active:
  /// per-antenna slope/intercept corrections are subtracted from the
  /// calibrated lines before the solve, and ports the snapshot marks
  /// `drop` join the degraded subset path like gate failures. With drift
  /// disabled (the default) a null or inactive snapshot changes nothing —
  /// results stay byte-identical to the drift-free pipeline.
  SensingResult sense(const RoundTrace& round, const std::string& tag_id = {},
                      const AntennaHealthMonitor* health = nullptr,
                      const DriftCorrections* drift = nullptr) const;

  /// Engine-powered single-round sense: the Stage-A grid scan fans out
  /// over the engine's pool, and every thread involved uses its own
  /// SolveWorkspace::for_this_thread(). Bit-identical to sense() for any
  /// thread count.
  SensingResult sense(const RoundTrace& round, SensingEngine& engine,
                      const std::string& tag_id = {},
                      const AntennaHealthMonitor* health = nullptr,
                      const DriftCorrections* drift = nullptr) const;

  /// Warm-started single-round sense: `hint` seeds a windowed position
  /// solve (DisentangleConfig::warm_start) that falls back to the full
  /// grid — byte-identical to the cold sense — when the windowed residual
  /// is too high or the hint misses the working region. Use when the tag
  /// was recently localized (StreamingSensor does this automatically with
  /// enable_warm_start). With a null `engine` the shared process cache
  /// and the calling thread are used.
  SensingResult sense_warm(const RoundTrace& round, const std::string& tag_id,
                           Vec3 hint,
                           const AntennaHealthMonitor* health = nullptr,
                           SensingEngine* engine = nullptr,
                           const DriftCorrections* drift = nullptr) const;

  /// Batch sensing: fit and grade the rounds across the engine's pool,
  /// rank all of their positions in one shared Stage-A pass, then finish
  /// each round on the pool. Results come back in input order and are
  /// bit-identical to calling sense() on each round sequentially —
  /// including degraded/rejected grades — regardless of the engine's
  /// thread count or of other threads calling into the same engine.
  /// `tag_id` applies to every round.
  ///
  /// Exceptions from structurally wrong rounds (antenna count mismatch)
  /// propagate: the first failing round *in input order* wins, after all
  /// rounds have finished.
  std::vector<SensingResult> sense_batch(
      std::span<const RoundTrace> rounds, SensingEngine& engine,
      const std::string& tag_id = {},
      const AntennaHealthMonitor* health = nullptr,
      const DriftCorrections* drift = nullptr) const;

  /// Per-round tag ids (`tag_ids` empty, or one id per round — anything
  /// else throws InvalidArgument). The multi-tag streaming shape.
  ///
  /// `warm_hints` is empty or one optional hint per round: rounds with an
  /// engaged hint run the warm-start path of sense_warm(), the rest solve
  /// cold. Bit-identical to sensing each round individually with the same
  /// hint.
  std::vector<SensingResult> sense_batch(
      std::span<const RoundTrace> rounds,
      std::span<const std::string> tag_ids, SensingEngine& engine,
      const AntennaHealthMonitor* health = nullptr,
      std::span<const std::optional<Vec3>> warm_hints = {},
      const DriftCorrections* drift = nullptr) const;

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

  /// The single-round sensing path behind sense() and sense_warm(): an
  /// explicit workspace (and optionally a pool for the grid scan, a
  /// geometry cache for the distance tables, and a warm-start hint).
  /// Shares prepare_round, solve_position_batch (via solve_position) and
  /// finish_round with sense_batch_impl, so the two cannot drift.
  SensingResult sense_with(const RoundTrace& round, const std::string& tag_id,
                           const AntennaHealthMonitor* health,
                           SolveWorkspace& ws, ThreadPool* pool,
                           GridGeometryCache* cache,
                           const Vec3* warm_hint = nullptr,
                           const DriftCorrections* drift = nullptr) const;

  /// A round after fitting, health gating, drift subtraction and error
  /// detection — everything that precedes the position solve. When
  /// `rejected` is set, `result` already carries the final verdict and
  /// `solve_lines` must not be used.
  struct PreparedRound {
    SensingResult result;
    std::vector<AntennaLine> solve_lines;
    bool rejected = false;
  };

  PreparedRound prepare_round(const RoundTrace& round,
                              const AntennaHealthMonitor* health,
                              const DriftCorrections* drift) const;

  /// Orientation solve + feature extraction + calibration + grading from
  /// an already-computed position. May throw Error (solver failure) —
  /// callers catch and reject, exactly like the sequential path.
  SensingResult finish_round(PreparedRound& prep, const std::string& tag_id,
                             const PositionSolve& pos, SolveWorkspace& ws) const;

  /// Shared body of both public sense_batch overloads, singletons
  /// included: prepare_round per round on the pool, one
  /// solve_position_batch over the shared distance table, then
  /// finish_round per round on the pool.
  std::vector<SensingResult> sense_batch_impl(
      std::span<const RoundTrace> rounds,
      std::span<const std::string> tag_ids, const std::string& shared_tag_id,
      SensingEngine& engine, const AntennaHealthMonitor* health,
      std::span<const std::optional<Vec3>> warm_hints,
      const DriftCorrections* drift) const;

  RfPrismConfig config_;
  CalibrationDB db_;
};

}  // namespace rfp
