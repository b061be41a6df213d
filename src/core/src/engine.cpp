#include "rfp/core/engine.hpp"

#include <thread>

namespace rfp {

namespace {

std::size_t resolve_threads(std::size_t n_threads) {
  if (n_threads > 0) return n_threads;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

}  // namespace

SensingEngine::SensingEngine(std::size_t n_threads)
    : pool_(resolve_threads(n_threads)) {}

void SensingEngine::enable_drift(std::size_t n_antennas, DriftConfig config) {
  DriftEstimator estimator(n_antennas, std::move(config));
  const std::lock_guard<std::mutex> lock(drift_mutex_);
  drift_.emplace(std::move(estimator));
}

bool SensingEngine::drift_enabled() const {
  const std::lock_guard<std::mutex> lock(drift_mutex_);
  return drift_.has_value();
}

DriftCorrections SensingEngine::drift_corrections() const {
  const std::lock_guard<std::mutex> lock(drift_mutex_);
  if (!drift_.has_value()) return {};
  return drift_->corrections();
}

void SensingEngine::observe_drift(const SensingResult& result,
                                  const DeploymentGeometry& geometry,
                                  const ReferencePose* reference) {
  const std::lock_guard<std::mutex> lock(drift_mutex_);
  if (!drift_.has_value()) return;
  drift_->observe(result, geometry, reference);
}

DriftStats SensingEngine::drift_stats() const {
  const std::lock_guard<std::mutex> lock(drift_mutex_);
  if (!drift_.has_value()) return {};
  return drift_->stats();
}

std::vector<ReSurveyAlarm> SensingEngine::drift_alarms() const {
  const std::lock_guard<std::mutex> lock(drift_mutex_);
  if (!drift_.has_value()) return {};
  return drift_->alarms();
}

void SensingEngine::with_drift(
    const std::function<void(DriftEstimator&)>& fn) {
  const std::lock_guard<std::mutex> lock(drift_mutex_);
  if (drift_.has_value()) fn(*drift_);
}

}  // namespace rfp
