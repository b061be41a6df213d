#include "rfp/baselines/tagtag.hpp"

#include <algorithm>
#include <cmath>
#include <map>

#include "rfp/common/angles.hpp"
#include "rfp/common/constants.hpp"
#include "rfp/common/error.hpp"
#include "rfp/core/preprocess.hpp"
#include "rfp/dsp/dtw.hpp"
#include "rfp/dsp/stats.hpp"

namespace rfp {

namespace {

/// Mean RSSI of `antenna` over `round` [dBm]: the average of its dwells'
/// mean reports (dwells without reports are skipped). Throws
/// InvalidArgument when no dwell of the antenna carries one.
double antenna_mean_rssi(const RoundTrace& round, std::size_t antenna) {
  double sum = 0.0;
  std::size_t n = 0;
  for (const Dwell& dwell : round.dwells) {
    if (dwell.antenna != antenna || dwell.rssi_dbm.empty()) continue;
    sum += mean(std::span<const double>(dwell.rssi_dbm));
    ++n;
  }
  require(n > 0, "Tagtag: antenna has no RSSI reports");
  return sum / static_cast<double>(n);
}

}  // namespace

Tagtag::Tagtag(TagtagConfig config) : config_(std::move(config)) {
  require(config_.knn_k >= 1, "Tagtag: knn_k must be >= 1");
}

void Tagtag::calibrate_link(const RoundTrace& round, double known_distance_m) {
  require(known_distance_m > 0.0, "Tagtag: bad calibration distance");
  require(config_.antenna < round.n_antennas, "Tagtag: antenna out of range");
  rssi_ref_dbm_ = antenna_mean_rssi(round, config_.antenna);
  d_ref_ = known_distance_m;
  link_calibrated_ = true;
}

double Tagtag::estimate_distance(const RoundTrace& round) const {
  if (!link_calibrated_) throw Error("Tagtag: calibrate_link() first");
  require(config_.antenna < round.n_antennas, "Tagtag: antenna out of range");
  const double rssi = antenna_mean_rssi(round, config_.antenna);
  // Round-trip free-space model: RSSI falls 40 dB per decade of distance.
  return d_ref_ * std::pow(10.0, (rssi_ref_dbm_ - rssi) / 40.0);
}

std::vector<double> Tagtag::feature_curve(const RoundTrace& round) const {
  if (!link_calibrated_) throw Error("Tagtag: calibrate_link() first");
  const std::vector<AntennaTrace> traces = preprocess_round(round);
  require(config_.antenna < traces.size(), "Tagtag: antenna out of range");
  const AntennaTrace& trace = traces[config_.antenna];
  require(trace.frequency_hz.size() >= 8,
          "Tagtag: trace has too few channels");

  const double rssi = antenna_mean_rssi(round, config_.antenna);
  const double d_hat =
      d_ref_ * std::pow(10.0, (rssi_ref_dbm_ - rssi) / 40.0);

  // Subtract the RSS-implied propagation phase from the naively unwrapped
  // curve, then mean-center (channel hopping cancels the orientation/device
  // constant, per the paper).
  std::vector<double> curve = unwrap(trace.wrapped_phase);
  for (std::size_t i = 0; i < curve.size(); ++i) {
    curve[i] -= kSlopePerMeter * d_hat * trace.frequency_hz[i];
  }
  const double m = mean(curve);
  for (double& c : curve) c -= m;
  return curve;
}

void Tagtag::add_sample(const RoundTrace& round, const std::string& material) {
  require(!material.empty(), "Tagtag: empty material name");
  curves_.push_back(feature_curve(round));
  labels_.push_back(material);
}

std::vector<std::string> Tagtag::classes() const {
  std::vector<std::string> out;
  for (const auto& l : labels_) {
    if (std::find(out.begin(), out.end(), l) == out.end()) out.push_back(l);
  }
  return out;
}

std::string Tagtag::predict(const RoundTrace& round) const {
  if (curves_.empty()) throw Error("Tagtag: no training samples");
  const std::vector<double> query = feature_curve(round);

  std::vector<std::pair<double, std::size_t>> scored;
  scored.reserve(curves_.size());
  for (std::size_t i = 0; i < curves_.size(); ++i) {
    scored.emplace_back(
        dtw_distance_normalized(query, curves_[i], config_.dtw_band), i);
  }
  const std::size_t k = std::min(config_.knn_k, scored.size());
  std::partial_sort(scored.begin(), scored.begin() + k, scored.end());

  std::map<std::string, double> votes;
  for (std::size_t i = 0; i < k; ++i) {
    votes[labels_[scored[i].second]] += 1.0 / (scored[i].first + 1e-9);
  }
  return std::max_element(votes.begin(), votes.end(),
                          [](const auto& a, const auto& b) {
                            return a.second < b.second;
                          })
      ->first;
}

}  // namespace rfp
