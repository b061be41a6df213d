#include "rfp/core/preprocess.hpp"

#include <algorithm>
#include <tuple>

#include "rfp/common/error.hpp"
#include "rfp/dsp/phase_prep.hpp"

namespace rfp {

std::vector<AntennaTrace> preprocess_round(const RoundTrace& round) {
  require(round.n_antennas > 0, "preprocess_round: zero antennas");

  // Aggregate each dwell into one flat list of channels.
  struct Channel {
    std::size_t antenna;
    double frequency_hz;
    std::size_t n_reads;
    double phase;
  };
  std::vector<Channel> channels;
  channels.reserve(round.dwells.size());
  for (const Dwell& dwell : round.dwells) {
    require(dwell.antenna < round.n_antennas,
            "preprocess_round: antenna index out of range");
    if (dwell.phases.empty()) continue;
    const ChannelPhase agg = aggregate_dwell(dwell.frequency_hz, dwell.phases);
    channels.push_back({dwell.antenna, dwell.frequency_hz, agg.n_reads,
                        agg.phase});
  }

  // Sort by antenna, then frequency, so the random hop order comes out
  // ascending. A channel can be visited twice in odd hop plans: its dwell
  // with more reads (better averaging) sorts first, the earlier one on a
  // tie (the sort is stable), and unique() keeps that one.
  std::stable_sort(channels.begin(), channels.end(),
                   [](const Channel& a, const Channel& b) {
                     return std::tie(a.antenna, a.frequency_hz, b.n_reads) <
                            std::tie(b.antenna, b.frequency_hz, a.n_reads);
                   });
  channels.erase(std::unique(channels.begin(), channels.end(),
                             [](const Channel& a, const Channel& b) {
                               return a.antenna == b.antenna &&
                                      a.frequency_hz == b.frequency_hz;
                             }),
                 channels.end());

  // Each antenna's channels are now one contiguous run.
  std::vector<AntennaTrace> out(round.n_antennas);
  auto first = channels.begin();
  for (std::size_t ai = 0; ai < round.n_antennas; ++ai) {
    const auto last =
        std::find_if(first, channels.end(),
                     [ai](const Channel& c) { return c.antenna != ai; });
    AntennaTrace& trace = out[ai];
    trace.antenna = ai;
    trace.frequency_hz.reserve(static_cast<std::size_t>(last - first));
    trace.wrapped_phase.reserve(static_cast<std::size_t>(last - first));
    for (; first != last; ++first) {
      trace.frequency_hz.push_back(first->frequency_hz);
      trace.wrapped_phase.push_back(first->phase);
    }
  }
  return out;
}

}  // namespace rfp
