#pragma once

#include <cstdint>
#include <vector>

#include "rfp/core/types.hpp"

/// \file drift.hpp
/// Online phase-drift self-calibration. The survey measures each port's
/// device slope/intercept once, but real readers drift afterwards: LO
/// aging shifts the slope channel (a CFO-like signature — a phase ramp
/// versus frequency that grows with deployment time) and cable length /
/// temperature shifts the intercept channel (an STO-like constant phase
/// offset). Left alone, drift silently biases Stage-A position and
/// Stage-B orientation.
///
/// DriftEstimator closes the loop from solved rounds back to the
/// calibration: after each valid solve it recomputes the per-antenna
/// slope/intercept residuals against the solved pose, smooths them with a
/// per-port EMA (MAD-gated against burst spikes), and publishes the
/// smoothed residuals as corrections to subtract from the calibrated
/// lines of future rounds. Because the solver absorbs any common-mode
/// offset into kt/bt, the estimator sees — and can only ever correct —
/// the *differential* (zero-common-mode) part of the drift, which is
/// exactly the part that damages poses.
///
/// Residuals taken against a *solved* pose are only partially observable:
/// the position fit absorbs whatever drift pattern looks like a tag
/// displacement (with n antennas, only the (n-3)-dimensional residual
/// space of each round's geometry survives), so traffic-only observation
/// converges slowly and leaves persistent blind spots. Deployments that
/// keep the survey's reference transponder in place pass its known
/// ReferencePose to observe(): residuals against a known pose make the
/// full differential drift visible every round (and stay usable even when
/// the solve itself was rejected), which is what the closed-loop
/// correction quality rests on. Traffic rounds still contribute unbiased
/// but weaker updates when no reference is available.
///
/// The correction loop is integral: solves run on corrected lines while
/// residuals are recomputed against the *raw* lines, so the EMA's fixed
/// point is the raw differential drift itself (not a correction of a
/// correction). Ports whose accumulated drift exceeds a confidence-scaled
/// threshold latch a ReSurveyAlarm; ports drifted beyond the correctable
/// bound are dropped into the existing degraded subset-solve path.

namespace rfp {

struct ReferencePose;  // calibration.hpp

/// Tuning of the estimator. Lives inside DisentangleConfig as `drift`;
/// enable=false (the default) keeps every pipeline output byte-identical
/// to the drift-free build.
struct DriftConfig {
  /// Master switch. Off: corrections are never applied, observe() is a
  /// no-op, and the pipeline is bit-exact to the pre-drift code.
  bool enable = false;

  /// EMA weight of the newest residual (0 < alpha <= 1). Smaller alpha
  /// smooths harder but tracks a ramp with more lag.
  double ema_alpha = 0.15;

  /// Valid rounds the estimator must see before corrections activate and
  /// alarms may fire (the first few residuals carry the solver's own
  /// transient, not drift).
  std::size_t warmup_rounds = 8;

  // -- MAD outlier gate ---------------------------------------------------
  /// Reject a port's update when its innovation deviates from the round's
  /// cross-port median by more than `mad_gate` robust sigmas
  /// (1.4826 * MAD, floored by the channel's absolute sigma floor below).
  double mad_gate = 6.0;
  /// Absolute innovation-scale floors — a clean simulated round has
  /// near-zero MAD, and the gate must not reject honest noise.
  double min_sigma_slope = 5e-10;  ///< [rad/Hz]
  double min_sigma_intercept = 0.02;  ///< [rad]

  // -- Re-survey alarm ----------------------------------------------------
  /// Base thresholds on the accumulated per-port correction.
  double alarm_slope = 8e-9;      ///< [rad/Hz] (~0.2 m of ranging bias)
  double alarm_intercept = 0.35;  ///< [rad] (~20 deg of intercept bias)
  /// Confidence scaling: the threshold grows by this many spread units
  /// (EMA of |innovation|), so a noisy port must drift further before the
  /// alarm fires.
  double alarm_confidence = 3.0;
  /// Updates a port needs before it can alarm.
  std::size_t alarm_min_updates = 12;
  /// Hysteresis: a latched alarm clears only once the correction falls
  /// below this fraction of the (confidence-scaled) threshold.
  double alarm_clear_fraction = 0.5;

  // -- Degradation bound --------------------------------------------------
  /// Beyond these, a port's correction is no longer trusted and the port
  /// is excluded from solves (degraded subset path) until re-surveyed.
  double max_correct_slope = 2.5e-8;   ///< [rad/Hz]
  double max_correct_intercept = 1.2;  ///< [rad]
};

/// Immutable per-round snapshot of the corrections to apply: subtracted
/// from the calibrated per-antenna lines before disentangling. Value
/// type, so concurrent solvers each carry their own copy.
struct DriftCorrections {
  bool active = false;       ///< false until warmed up (or when disabled)
  std::vector<double> slope;      ///< per-antenna slope correction [rad/Hz]
  std::vector<double> intercept;  ///< per-antenna intercept correction [rad]
  /// Ports drifted beyond the correctable bound: exclude from the solve.
  std::vector<bool> drop;
};

/// Per-port estimator state.
struct AntennaDriftState {
  double slope = 0.0;       ///< EMA drift estimate, slope channel [rad/Hz]
  double intercept = 0.0;   ///< EMA drift estimate, intercept channel [rad]
  double slope_rate = 0.0;  ///< EMA of per-round slope delta [rad/Hz/round]
  double intercept_rate = 0.0;  ///< EMA of per-round intercept delta [rad/round]
  double slope_spread = 0.0;    ///< EMA of |slope innovation| [rad/Hz]
  double intercept_spread = 0.0;  ///< EMA of |intercept innovation| [rad]
  std::uint64_t updates = 0;  ///< accepted (non-gated) updates
  bool alarmed = false;       ///< latched re-survey alarm
};

/// One latched re-survey alarm, with the rates an operator needs to
/// decide how urgently the port must be re-surveyed.
struct ReSurveyAlarm {
  std::size_t antenna = 0;
  double slope_drift = 0.0;      ///< accumulated correction [rad/Hz]
  double intercept_drift = 0.0;  ///< accumulated correction [rad]
  double slope_rate = 0.0;       ///< smoothed drift rate [rad/Hz per round]
  double intercept_rate = 0.0;   ///< smoothed drift rate [rad per round]
  std::uint64_t updates = 0;
};

/// Counters for logging / server stats.
struct DriftStats {
  std::uint64_t rounds_observed = 0;   ///< valid rounds folded in
  std::uint64_t rounds_skipped = 0;    ///< invalid/unusable rounds
  std::uint64_t updates_applied = 0;   ///< per-port EMA updates accepted
  std::uint64_t outliers_rejected = 0; ///< per-port updates MAD-gated away
  std::uint64_t alarms_raised = 0;     ///< inactive -> active alarm edges
  std::uint64_t alarms_active = 0;     ///< ports currently latched
  std::uint64_t ports_dropped = 0;     ///< ports beyond the correctable bound
  bool warmed_up = false;              ///< corrections currently active
};

/// Tracks per-antenna calibration drift across solved rounds. Not
/// thread-safe by itself: its one owner, the deployment's RfPrism,
/// serializes access behind its own lock.
class DriftEstimator {
 public:
  /// Throws InvalidArgument on zero antennas or out-of-range tuning.
  explicit DriftEstimator(std::size_t n_antennas, DriftConfig config = {});

  const DriftConfig& config() const { return config_; }
  std::size_t n_antennas() const { return state_.size(); }

  /// Fold one sensing emission into the estimate. Only valid results with
  /// >= 3 solved (non-excluded) lines contribute; everything else counts
  /// as rounds_skipped. `geometry` must be the deployment the result was
  /// solved against (same antenna count).
  ///
  /// When the round came from a tag whose pose is known (the survey's
  /// reference transponder left in place), pass it as `reference`:
  /// residuals are then taken against the known pose instead of the
  /// solved one — fully observable, immune to the solver absorbing drift
  /// into a position bias, and usable even when the solve was rejected
  /// (`result.valid` is not required, only fit-worthy lines).
  void observe(const SensingResult& result,
               const DeploymentGeometry& geometry,
               const ReferencePose* reference = nullptr);

  /// Snapshot of the corrections to apply to the next round's lines.
  /// active=false (and all-zero corrections) until enable && warm-up.
  DriftCorrections corrections() const;

  /// Currently latched re-survey alarms, ascending antenna order.
  std::vector<ReSurveyAlarm> alarms() const;

  DriftStats stats() const;

  /// Per-port state (diagnostics).
  const std::vector<AntennaDriftState>& state() const { return state_; }
  std::uint64_t rounds_observed() const { return stats_.rounds_observed; }

  /// Adopt previously recorded per-port state (e.g. to start from a known
  /// drift in a test). Throws InvalidArgument when `state` does not match
  /// this estimator's antenna count.
  void restore(std::vector<AntennaDriftState> state,
               std::uint64_t rounds_observed);

  /// Forget all history (state returns to zero, alarms clear).
  void reset();

 private:
  DriftConfig config_;
  std::vector<AntennaDriftState> state_;
  DriftStats stats_;
};

}  // namespace rfp
