#pragma once

#include <optional>

#include "rfp/core/types.hpp"

/// \file tracker.hpp
/// Round-to-round tracking on top of the disentangled positions. RF-Prism
/// requires the tag to hold still *within* one hop round (§V-C), but many
/// applications move tags *between* rounds (conveyor step-advance, items
/// re-shelved). A constant-velocity Kalman filter over the per-round
/// fixes smooths the cm-level sensing noise and yields a velocity
/// estimate; a Mahalanobis gate rejects the occasional gross fix.

namespace rfp {

struct TrackerConfig {
  /// Process noise: white acceleration density [m^2/s^3]. Larger values
  /// track maneuvers faster at the cost of less smoothing.
  double acceleration_density = 2e-6;

  /// Measurement noise: std-dev of one round's position fix [m] per axis
  /// (the sensing pipeline's clean-space accuracy).
  double measurement_sigma = 0.06;

  /// Reject fixes whose squared Mahalanobis distance from the prediction
  /// exceeds this (chi-square, 2 dof; 13.8 ~ 0.1% tail).
  double gate_chi2 = 13.8;

  /// Re-initialize the track after this many consecutive gated fixes.
  std::size_t max_consecutive_rejections = 3;
};

/// Smoothed kinematic state of one tag.
struct TrackState {
  Vec2 position;
  Vec2 velocity;
  double position_variance = 0.0;  ///< mean of the two axis variances
  std::size_t updates = 0;         ///< accepted fixes since (re)init
};

/// Constant-velocity Kalman tracker for a single tag (one instance per
/// tag). 2D: the tag plane of the deployment.
class Tracker {
 public:
  explicit Tracker(TrackerConfig config = {});

  /// Feed one sensing fix taken at absolute time `time_s`. Invalid
  /// results are ignored (returns false). Returns true when the fix was
  /// accepted into the track, false when it was gated out or ignored.
  ///
  /// `noise_scale` inflates the measurement std-dev for this fix only —
  /// a degraded-grade subset solve is trusted less than a full one (1.0
  /// is bit-identical to the historical two-argument call). `innovation2`
  /// (optional) receives the squared Mahalanobis distance of the fix
  /// from the prediction (0 on a (re)initializing fix), which motion
  /// segmentation consumes as maneuver evidence.
  bool update(const SensingResult& result, double time_s,
              double noise_scale = 1.0, double* innovation2 = nullptr);

  /// Current estimate; nullopt before the first accepted fix. The
  /// variance is the *posterior* of the last accepted fix — it does not
  /// grow while the track coasts; see predict_state().
  std::optional<TrackState> state() const;

  /// State predicted at `time_s` (>= the last update) with the
  /// covariance propagated through the constant-velocity model to that
  /// time. Unlike state(), the reported variance keeps growing while the
  /// track coasts — the uncertainty a gate or a motion segmenter must
  /// use when it queries the track between fixes.
  std::optional<TrackState> predict_state(double time_s) const;

  /// Drop the track.
  void reset();

  std::size_t rejected_in_a_row() const { return consecutive_rejections_; }

  /// Absolute time of the last accepted fix (0 before the first). Lets
  /// callers judge track staleness and keep fixes in time order.
  double last_update_time_s() const { return initialized_ ? last_time_s : 0.0; }

 private:
  void initialize(Vec2 position, double time_s);

  TrackerConfig config_;
  bool initialized_ = false;
  double last_time_s = 0.0;
  // State [x, y, vx, vy]; covariance stored per-axis (x and y decouple
  // under the constant-velocity model with axis-aligned noise), as two
  // independent 2x2 blocks sharing the same values.
  double x_[4] = {0, 0, 0, 0};
  // Per-axis covariance [p_pp, p_pv; p_pv, p_vv] (same for both axes).
  double p_pp_ = 0.0, p_pv_ = 0.0, p_vv_ = 0.0;
  std::size_t updates_ = 0;
  std::size_t consecutive_rejections_ = 0;
};

}  // namespace rfp
