#include "rfp/core/pipeline.hpp"

#include <algorithm>
#include <memory>
#include <optional>
#include <utility>

#include "rfp/common/angles.hpp"
#include "rfp/common/error.hpp"
#include "rfp/core/engine.hpp"
#include "rfp/core/features.hpp"
#include "rfp/core/grid_cache.hpp"

namespace rfp {

const char* to_string(RejectReason reason) {
  switch (reason) {
    case RejectReason::kNone:
      return "none";
    case RejectReason::kMobility:
      return "mobility";
    case RejectReason::kTooFewChannels:
      return "too_few_channels";
    case RejectReason::kSolverFailure:
      return "solver_failure";
    case RejectReason::kAntennaHealth:
      return "antenna_health";
  }
  return "?";
}

const char* to_string(SensingGrade grade) {
  switch (grade) {
    case SensingGrade::kFull:
      return "full";
    case SensingGrade::kDegraded:
      return "degraded";
    case SensingGrade::kRejected:
      return "rejected";
  }
  return "?";
}

RfPrism::RfPrism(RfPrismConfig config) : config_(std::move(config)) {
  const bool mode_3d = config_.disentangle.grid_nz > 1;
  const std::size_t min_antennas = mode_3d ? 4 : 3;
  require(config_.geometry.n_antennas() >= min_antennas,
          "RfPrism: not enough antennas for the sensing mode");
  require(config_.geometry.antenna_frames.size() ==
              config_.geometry.n_antennas(),
          "RfPrism: antenna frames/positions mismatch");
  if (config_.disentangle.drift.enable) {
    drift_ = std::make_unique<LockedDrift>(config_.geometry.n_antennas(),
                                           config_.disentangle.drift);
  }
}

void RfPrism::import_calibrations(const CalibrationDB& db) {
  if (db.reader().has_value()) {
    require(db.reader()->n_antennas() == config_.geometry.n_antennas(),
            "RfPrism::import_calibrations: antenna count mismatch");
  }
  db_ = db;
}

std::vector<AntennaLine> RfPrism::fit_round(const RoundTrace& round,
                                            bool apply_reader_cal) const {
  require(round.n_antennas == config_.geometry.n_antennas(),
          "RfPrism: round antenna count does not match geometry");
  const std::vector<AntennaTrace> traces = preprocess_round(round);
  std::vector<AntennaLine> lines = fit_all_antennas(traces, config_.fitting);
  if (apply_reader_cal && db_.reader().has_value()) {
    apply_reader_calibration(*db_.reader(), lines);
  }
  return lines;
}

void RfPrism::calibrate_reader(const RoundTrace& round,
                               const ReferencePose& reference) {
  const std::vector<AntennaLine> lines =
      fit_round(round, /*apply_reader_cal=*/false);
  db_.set_reader(::rfp::calibrate_reader(config_.geometry, lines, reference));
}

void RfPrism::calibrate_tag(const std::string& tag_id, const RoundTrace& round,
                            const ReferencePose& reference) {
  require(!tag_id.empty(), "RfPrism::calibrate_tag: empty tag id");
  if (!db_.reader().has_value()) {
    throw Error("RfPrism::calibrate_tag: reader calibration required first");
  }
  const std::vector<AntennaLine> lines =
      fit_round(round, /*apply_reader_cal=*/true);
  db_.set_tag(tag_id, ::rfp::calibrate_tag(config_.geometry, lines, reference));
}

namespace {

/// `result` rejected with `reason`.
SensingResult reject(SensingResult&& result, RejectReason reason) {
  result.valid = false;
  result.reject_reason = reason;
  result.grade = SensingGrade::kRejected;
  return std::move(result);
}

}  // namespace

SensingResult RfPrism::sense(const RoundTrace& round, const std::string& tag_id,
                             const AntennaHealthMonitor* health) const {
  return std::move(
      sense_batch_impl({&round, 1}, {}, tag_id, nullptr, health)[0]);
}

SensingResult RfPrism::sense(const RoundTrace& round, SensingEngine& engine,
                             const std::string& tag_id,
                             const AntennaHealthMonitor* health) const {
  return std::move(
      sense_batch_impl({&round, 1}, {}, tag_id, &engine, health)[0]);
}

std::vector<SensingResult> RfPrism::sense_batch(
    std::span<const RoundTrace> rounds, SensingEngine& engine,
    const std::string& tag_id, const AntennaHealthMonitor* health) const {
  return sense_batch_impl(rounds, {}, tag_id, &engine, health);
}

std::vector<SensingResult> RfPrism::sense_batch(
    std::span<const RoundTrace> rounds, std::span<const std::string> tag_ids,
    SensingEngine* engine, const AntennaHealthMonitor* health) const {
  require(tag_ids.empty() || tag_ids.size() == rounds.size(),
          "RfPrism::sense_batch: tag_ids must be empty or match rounds");
  return sense_batch_impl(rounds, tag_ids, {}, engine, health);
}

std::vector<SensingResult> RfPrism::sense_batch_impl(
    std::span<const RoundTrace> rounds, std::span<const std::string> tag_ids,
    const std::string& shared_tag_id, SensingEngine* engine,
    const AntennaHealthMonitor* health) const {
  if (rounds.empty()) return {};
  std::vector<SensingResult> results(rounds.size());
  const DisentangleConfig& dc = config_.disentangle;

  // One drift snapshot and one distance table per call: every round sees
  // the same estimate whatever the thread count, and shares the
  // deployment geometry, so the cache lookup is one digest+lock per call.
  // A degenerate grid has no table: every round that reaches Stage A is
  // then a solver failure.
  const DriftCorrections drift = drift_corrections();
  std::shared_ptr<const GridTable> table;
  try {
    table = GridGeometryCache::shared().acquire(
        config_.geometry,
        GridSpec{dc.grid_nx, dc.grid_ny, std::max<std::size_t>(dc.grid_nz, 1),
                 dc.z_lo, dc.z_hi});
  } catch (const Error&) {
  }

  // One round per chunk on the engine's pool (every chunk writes only its
  // own slot, so results are in input order whatever the scheduling, and
  // parallel_for rethrows the first exception in chunk order), or a plain
  // loop on the calling thread.
  ThreadPool* pool = engine != nullptr ? &engine->pool() : nullptr;
  const auto sense_rounds = [&](std::size_t begin, std::size_t end,
                                std::size_t) {
    for (std::size_t i = begin; i < end; ++i) {
      results[i] = sense_round(rounds[i],
                               tag_ids.empty() ? shared_tag_id : tag_ids[i],
                               health, drift, table.get(), pool);
    }
  };
  if (pool != nullptr) {
    pool->parallel_for(rounds.size(), 1, sense_rounds);
  } else {
    sense_rounds(0, rounds.size(), 0);
  }
  return results;
}

DriftCorrections RfPrism::drift_corrections() const {
  if (drift_ == nullptr) return {};
  const std::lock_guard<std::mutex> lock(drift_->mutex);
  return drift_->estimator.corrections();
}

void RfPrism::observe_drift(const SensingResult& result,
                            const ReferencePose* reference) const {
  if (drift_ == nullptr) return;
  const std::lock_guard<std::mutex> lock(drift_->mutex);
  drift_->estimator.observe(result, config_.geometry, reference);
}

DriftStats RfPrism::drift_stats() const {
  if (drift_ == nullptr) return {};
  const std::lock_guard<std::mutex> lock(drift_->mutex);
  return drift_->estimator.stats();
}

std::vector<ReSurveyAlarm> RfPrism::drift_alarms() const {
  if (drift_ == nullptr) return {};
  const std::lock_guard<std::mutex> lock(drift_->mutex);
  return drift_->estimator.alarms();
}

void RfPrism::with_drift(
    const std::function<void(DriftEstimator&)>& fn) const {
  if (drift_ == nullptr) return;
  const std::lock_guard<std::mutex> lock(drift_->mutex);
  fn(drift_->estimator);
}

SensingResult RfPrism::sense_round(const RoundTrace& round,
                                   const std::string& tag_id,
                                   const AntennaHealthMonitor* health,
                                   const DriftCorrections& drift,
                                   const GridTable* table,
                                   ThreadPool* pool) const {
  SensingResult result;
  std::vector<AntennaLine> solve_lines;
  result.lines = fit_round(round, /*apply_reader_cal=*/true);
  const bool mode_3d = config_.disentangle.grid_nz > 1;
  const std::size_t min_antennas = mode_3d ? 4 : 3;
  // Drift corrections only bite once the estimator has warmed up; until
  // then this path is bit-for-bit the drift-free pipeline.
  const bool use_drift = drift.active;

  // ---- Antenna-subset selection (degraded mode) -----------------------
  // Gate each port's *this-round* data on the §V-C per-antenna criteria.
  // Quarantined ports (long-horizon health) are excluded regardless of how
  // their current round looks.
  const std::vector<bool> gate =
      antenna_health_flags(result.lines, config_.error_detector);
  for (std::size_t i = 0; i < result.lines.size(); ++i) {
    const std::size_t antenna = result.lines[i].antenna;
    const bool quarantined = health != nullptr &&
                             antenna < health->n_antennas() &&
                             !health->healthy(antenna);
    // Ports whose accumulated drift exceeds the correctable bound join
    // the degraded subset path like gate failures: their lines are too
    // far gone to trust even corrected.
    const bool drift_dropped =
        use_drift && antenna < drift.drop.size() && drift.drop[antenna];
    if (!gate[i] || drift_dropped) {
      result.unhealthy_antennas.push_back(antenna);
    }
    if (!gate[i] || drift_dropped || quarantined) {
      result.excluded_antennas.push_back(antenna);
    } else {
      solve_lines.push_back(result.lines[i]);
    }
  }

  // Subtract the estimator's per-antenna corrections from the lines the
  // solver will see. result.lines stays *raw* — diagnostics and the drift
  // estimator itself feed on the uncorrected fits (the integral loop's
  // fixed point depends on it). rmse is untouched by a slope/intercept
  // shift, so the error detector's gates behave identically.
  if (use_drift) {
    for (AntennaLine& line : solve_lines) {
      if (line.antenna < drift.slope.size()) {
        line.fit.slope -= drift.slope[line.antenna];
        line.fit.intercept -= drift.intercept[line.antenna];
      }
    }
  }

  if (solve_lines.size() < min_antennas) {
    // Not enough healthy ports to disentangle. Prefer the whole-round
    // detector verdict when *every* port failed (mobility corrupts all
    // antennas at once — that is not a port-health problem); otherwise
    // name the antenna-health gate explicitly.
    if (result.unhealthy_antennas.size() == result.lines.size()) {
      const RejectReason reason =
          detect_errors(result.lines, config_.error_detector);
      return reject(std::move(result), reason != RejectReason::kNone
                                           ? reason
                                           : RejectReason::kAntennaHealth);
    }
    return reject(std::move(result), RejectReason::kAntennaHealth);
  }

  RejectReason reason = detect_errors(
      std::span<const AntennaLine>(solve_lines), config_.error_detector);
  // Best-subset search: the cross-antenna checks can still fail on the
  // healthy set (e.g. one marginal port drags the median); shed the
  // worst-RMSE line while a solvable subset remains.
  while (reason != RejectReason::kNone && solve_lines.size() > min_antennas) {
    std::size_t worst = 0;
    for (std::size_t i = 1; i < solve_lines.size(); ++i) {
      if (solve_lines[i].fit.rmse > solve_lines[worst].fit.rmse) worst = i;
    }
    result.unhealthy_antennas.push_back(solve_lines[worst].antenna);
    result.excluded_antennas.push_back(solve_lines[worst].antenna);
    solve_lines.erase(solve_lines.begin() +
                      static_cast<std::ptrdiff_t>(worst));
    reason = detect_errors(std::span<const AntennaLine>(solve_lines),
                           config_.error_detector);
  }
  if (reason != RejectReason::kNone) {
    return reject(std::move(result), reason);
  }

  // ---- Stage A, then Stage B, features and grading --------------------
  SolveWorkspace& ws = SolveWorkspace::for_this_thread();
  const std::optional<PositionSolve> solved =
      table != nullptr ? try_solve_position(config_.geometry, solve_lines,
                                            config_.disentangle, ws, pool,
                                            *table)
                       : std::nullopt;
  if (!solved.has_value()) {
    return reject(std::move(result), RejectReason::kSolverFailure);
  }
  // Stage B and the features work on `result` in place, so a throw among
  // them rejects the fitted/gated result as a solver failure.
  try {
    const PositionSolve& pos = *solved;
    const OrientationSolve orient = solve_orientation(
        config_.geometry, solve_lines, pos.position, config_.disentangle, ws);
    result.position = pos.position;
    result.position_residual = pos.rms;
    result.kt = pos.kt;
    result.alpha = orient.alpha;
    result.polarization = orient.polarization;
    result.orientation_residual = orient.rms;
    result.bt = orient.bt;

    // Material features come from the lines that were actually solved on:
    // a dead or bursty port would otherwise poison the averaged signature.
    result.material_signature =
        material_signature(std::span<const AntennaLine>(solve_lines));
    if (!tag_id.empty()) {
      if (const TagCalibration* cal = db_.find_tag(tag_id)) {
        apply_tag_calibration(*cal, result.kt, result.bt,
                              result.material_signature);
      }
    }
  } catch (const Error&) {
    return reject(std::move(result), RejectReason::kSolverFailure);
  }

  result.valid = true;
  result.reject_reason = RejectReason::kNone;
  result.grade = solve_lines.size() < result.lines.size()
                     ? SensingGrade::kDegraded
                     : SensingGrade::kFull;
  return result;
}

}  // namespace rfp
