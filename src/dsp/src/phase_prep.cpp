#include "rfp/dsp/phase_prep.hpp"

#include <cmath>
#include <vector>

#include "rfp/common/angles.hpp"
#include "rfp/common/constants.hpp"
#include "rfp/common/error.hpp"

namespace rfp {

ChannelPhase aggregate_dwell(double frequency_hz,
                             std::span<const double> raw_phases) {
  require(!raw_phases.empty(), "aggregate_dwell: no reads");
  require(frequency_hz > 0.0, "aggregate_dwell: bad frequency");

  // Fold modulo pi by doubling the angle: 2*(theta + pi) == 2*theta (mod
  // 2*pi), so the pi ambiguity vanishes on the doubled circle.
  std::vector<double> doubled(raw_phases.size());
  for (std::size_t i = 0; i < raw_phases.size(); ++i) {
    doubled[i] = wrap_to_2pi(2.0 * raw_phases[i]);
  }
  const double folded_mean = wrap_to_2pi(circular_mean(doubled)) / 2.0;

  // Unfold: each read is nearer to folded_mean or folded_mean + pi; the
  // majority cluster fixes the half-turn.
  const double alt = wrap_to_2pi(folded_mean + kPi);
  std::size_t votes_base = 0;
  std::vector<double> corrected(raw_phases.size());
  for (std::size_t i = 0; i < raw_phases.size(); ++i) {
    const double d_base = std::abs(ang_diff(raw_phases[i], folded_mean));
    const double d_alt = std::abs(ang_diff(raw_phases[i], alt));
    if (d_base <= d_alt) {
      ++votes_base;
      corrected[i] = raw_phases[i];
    } else {
      corrected[i] = wrap_to_2pi(raw_phases[i] + kPi);
    }
  }
  const bool base_wins = 2 * votes_base >= raw_phases.size();
  if (!base_wins) {
    // The majority sat on the alternate representative: flip all corrected
    // reads to cluster around it instead.
    for (double& c : corrected) c = wrap_to_2pi(c + kPi);
  }

  ChannelPhase out;
  out.frequency_hz = frequency_hz;
  out.n_reads = raw_phases.size();
  out.phase = wrap_to_2pi(circular_mean(corrected));
  return out;
}

}  // namespace rfp
