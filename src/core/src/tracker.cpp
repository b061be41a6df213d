#include "rfp/core/tracker.hpp"

#include <cmath>

#include "rfp/common/error.hpp"

namespace rfp {

Tracker::Tracker(TrackerConfig config) : config_(config) {
  require(config_.acceleration_density > 0.0 &&
              config_.measurement_sigma > 0.0 && config_.gate_chi2 > 0.0,
          "Tracker: parameters must be positive");
}

void Tracker::initialize(Vec2 position, double time_s) {
  x_[0] = position.x;
  x_[1] = position.y;
  x_[2] = 0.0;
  x_[3] = 0.0;
  const double r = config_.measurement_sigma * config_.measurement_sigma;
  p_pp_ = r;
  p_pv_ = 0.0;
  p_vv_ = 2.5e-3;  // initial velocity sigma 5 cm/s (shelf-scale motion)
  last_time_s = time_s;
  initialized_ = true;
  updates_ = 1;
  consecutive_rejections_ = 0;
}

bool Tracker::update(const SensingResult& result, double time_s,
                     double noise_scale, double* innovation2) {
  if (innovation2) *innovation2 = 0.0;
  if (!result.valid) return false;
  require(noise_scale > 0.0, "Tracker::update: noise_scale must be positive");
  const Vec2 z = result.position.xy();

  if (!initialized_) {
    initialize(z, time_s);
    return true;
  }
  const double dt = time_s - last_time_s;
  require(dt >= 0.0, "Tracker::update: time went backwards");

  // ---- Predict (per axis; x and y share the covariance block) ----------
  const double q = config_.acceleration_density;
  const double p_pp = p_pp_ + 2.0 * dt * p_pv_ + dt * dt * p_vv_ +
                      q * dt * dt * dt / 3.0;
  const double p_pv = p_pv_ + dt * p_vv_ + q * dt * dt / 2.0;
  const double p_vv = p_vv_ + q * dt;
  const double pred_x = x_[0] + dt * x_[2];
  const double pred_y = x_[1] + dt * x_[3];

  // ---- Gate -------------------------------------------------------------
  const double sigma = config_.measurement_sigma * noise_scale;
  const double r = sigma * sigma;
  const double s = p_pp + r;  // innovation variance per axis
  const double dx = z.x - pred_x;
  const double dy = z.y - pred_y;
  const double mahalanobis2 = (dx * dx + dy * dy) / s;
  if (innovation2) *innovation2 = mahalanobis2;
  if (mahalanobis2 > config_.gate_chi2) {
    ++consecutive_rejections_;
    if (consecutive_rejections_ >= config_.max_consecutive_rejections) {
      // The world moved on; restart from the new fix.
      initialize(z, time_s);
      if (innovation2) *innovation2 = 0.0;
      return true;
    }
    return false;
  }
  consecutive_rejections_ = 0;

  // ---- Update -----------------------------------------------------------
  const double k_p = p_pp / s;  // position gain
  const double k_v = p_pv / s;  // velocity gain
  x_[0] = pred_x + k_p * dx;
  x_[1] = pred_y + k_p * dy;
  x_[2] = x_[2] + k_v * dx;
  x_[3] = x_[3] + k_v * dy;
  p_pp_ = (1.0 - k_p) * p_pp;
  p_pv_ = (1.0 - k_p) * p_pv;
  p_vv_ = p_vv - k_v * p_pv;

  last_time_s = time_s;
  ++updates_;
  return true;
}

std::optional<TrackState> Tracker::state() const {
  if (!initialized_) return std::nullopt;
  TrackState s;
  s.position = {x_[0], x_[1]};
  s.velocity = {x_[2], x_[3]};
  s.position_variance = p_pp_;
  s.updates = updates_;
  return s;
}

std::optional<TrackState> Tracker::predict_state(double time_s) const {
  if (!initialized_) return std::nullopt;
  const double dt = std::max(time_s - last_time_s, 0.0);
  const double q = config_.acceleration_density;
  TrackState s;
  s.position = {x_[0] + dt * x_[2], x_[1] + dt * x_[3]};
  s.velocity = {x_[2], x_[3]};
  s.position_variance =
      p_pp_ + 2.0 * dt * p_pv_ + dt * dt * p_vv_ + q * dt * dt * dt / 3.0;
  s.updates = updates_;
  return s;
}

void Tracker::reset() {
  initialized_ = false;
  updates_ = 0;
  consecutive_rejections_ = 0;
}

}  // namespace rfp
