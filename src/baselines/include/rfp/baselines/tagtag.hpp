#pragma once

#include <string>
#include <vector>

#include "rfp/core/types.hpp"
#include "rfp/rfsim/reader.hpp"

/// \file tagtag.hpp
/// Tagtag-style material identification baseline (paper §VI-B): "performs
/// material identification based on the DTW algorithm. It eliminates the
/// impact of signal propagation using the RSS readings."
///
/// Concretely: a single-antenna method that (1) estimates the antenna-tag
/// distance coarsely from RSSI via a calibrated log-distance model, (2)
/// subtracts the implied propagation phase from the unwrapped
/// multi-frequency curve, (3) mean-centers the result (channel hopping
/// cancels orientation, as the paper notes), and (4) classifies by DTW
/// nearest-neighbour against stored training curves. The coarse RSS step
/// is its weakness: when the distance actually varies, RSS error tilts the
/// curves and accuracy drops (paper Figs. 17-20).

namespace rfp {

struct TagtagConfig {
  std::size_t antenna = 0;      ///< which antenna's readings to use
  std::size_t knn_k = 3;        ///< neighbours in the DTW vote
  std::size_t dtw_band = 8;     ///< Sakoe-Chiba band (channels)
};

class Tagtag {
 public:
  explicit Tagtag(TagtagConfig config = {});

  /// Calibrate the RSS -> distance model: `round` collected at a known
  /// antenna-tag distance (bare tag).
  void calibrate_link(const RoundTrace& round, double known_distance_m);

  /// Add a labelled training example. Throws Error when the link is not
  /// calibrated; throws InvalidArgument on an unusable trace.
  void add_sample(const RoundTrace& round, const std::string& material);

  /// Materials seen so far (vote classes).
  std::vector<std::string> classes() const;

  /// Predict the material of one round by DTW k-NN. Throws Error when no
  /// training samples exist.
  std::string predict(const RoundTrace& round) const;

  /// Distance estimated from RSSI for a round (exposed for tests) [m].
  double estimate_distance(const RoundTrace& round) const;

  std::size_t n_samples() const { return curves_.size(); }

 private:
  std::vector<double> feature_curve(const RoundTrace& round) const;

  TagtagConfig config_;
  double rssi_ref_dbm_ = 0.0;
  double d_ref_ = 0.0;
  bool link_calibrated_ = false;

  std::vector<std::vector<double>> curves_;
  std::vector<std::string> labels_;
};

}  // namespace rfp
