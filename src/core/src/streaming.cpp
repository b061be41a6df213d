#include "rfp/core/streaming.hpp"

#include "rfp/core/track_sink.hpp"

#include <algorithm>
#include <cmath>

#include "rfp/common/error.hpp"

namespace rfp {

namespace {

/// Complete ports that let a tag emit a partial round (see StreamingSensor).
constexpr std::size_t kPartialMinAntennas = 3;

}  // namespace

StreamingSensor::StreamingSensor(const RfPrism& prism, StreamingConfig config,
                                 SensingEngine* engine)
    : prism_(&prism),
      config_(std::move(config)),
      engine_(engine),
      health_(prism.config().geometry.n_antennas(), config_.health) {
  require(config_.min_channels_per_antenna >= 3,
          "StreamingSensor: need at least 3 channels per antenna");
  require(config_.max_round_age_s > 0.0 && config_.tag_timeout_s > 0.0,
          "StreamingSensor: ages must be positive");
  require(config_.max_pending_tags > 0 &&
              config_.max_channels_per_antenna > 0 &&
              config_.max_reads_per_pool > 0,
          "StreamingSensor: memory caps must be positive");
}

void StreamingSensor::evict_stalest_tag() {
  auto stalest = pending_.begin();
  for (auto it = pending_.begin(); it != pending_.end(); ++it) {
    if (it->second.newest_time_s < stalest->second.newest_time_s) {
      stalest = it;
    }
  }
  pending_.erase(stalest);
  ++stats_.tag_evictions;
}

void StreamingSensor::prune_stale_pools(PendingTag& tag) {
  const double cutoff = tag.newest_time_s - config_.max_round_age_s;
  for (auto& antenna : tag.antennas) {
    for (auto it = antenna.begin(); it != antenna.end();) {
      if (it->second.last_time_s < cutoff) {
        it = antenna.erase(it);
        ++stats_.stale_pools_pruned;
      } else {
        ++it;
      }
    }
  }
  tag.last_prune_s = tag.newest_time_s;
}

void StreamingSensor::push(const TagRead& read) {
  require(!read.tag_id.empty(), "StreamingSensor: empty tag id");
  const std::size_t n_antennas = prism_->config().geometry.n_antennas();
  require(read.antenna < n_antennas,
          "StreamingSensor: antenna index out of range");
  require(read.frequency_hz > 0.0, "StreamingSensor: bad frequency");
  require(std::isfinite(read.time_s) && std::isfinite(read.phase) &&
              std::isfinite(read.frequency_hz),
          "StreamingSensor: non-finite read fields");

  high_water_s_ = std::max(high_water_s_, read.time_s);

  auto tag_it = pending_.find(read.tag_id);
  if (tag_it == pending_.end()) {
    if (pending_.size() >= config_.max_pending_tags) evict_stalest_tag();
    tag_it = pending_.try_emplace(read.tag_id).first;
    tag_it->second.newest_time_s = read.time_s;
    tag_it->second.first_time_s = read.time_s;
    tag_it->second.last_prune_s = read.time_s;
  }
  PendingTag& tag = tag_it->second;
  if (tag.antennas.empty()) tag.antennas.resize(n_antennas);

  // A report older than the whole round-age window cannot contribute to
  // the round being assembled — drop it on arrival.
  if (read.time_s < tag.newest_time_s - config_.max_round_age_s) {
    ++stats_.stale_dropped;
    return;
  }

  auto& antenna = tag.antennas[read.antenna];
  auto pool_it = antenna.find(read.channel);
  if (pool_it == antenna.end()) {
    if (antenna.size() >= config_.max_channels_per_antenna) {
      // Port full (garbage channel indices, or an endless trickle): evict
      // the stalest pool so fresh channels keep flowing.
      auto stalest = antenna.begin();
      for (auto it = antenna.begin(); it != antenna.end(); ++it) {
        if (it->second.last_time_s < stalest->second.last_time_s) stalest = it;
      }
      antenna.erase(stalest);
      ++stats_.channel_evictions;
    }
    pool_it = antenna.try_emplace(read.channel).first;
    pool_it->second.frequency_hz = read.frequency_hz;
    pool_it->second.first_time_s = read.time_s;
    pool_it->second.last_time_s = read.time_s;
  }
  ChannelPool& pool = pool_it->second;

  for (std::size_t i = 0; i < pool.times.size(); ++i) {
    if (pool.times[i] == read.time_s && pool.phases[i] == read.phase) {
      ++stats_.duplicates_dropped;  // LLRP redelivery
      return;
    }
  }

  if (pool.phases.size() >= config_.max_reads_per_pool) {
    // Oldest-first eviction (arrival order): a tag read forever that never
    // completes a round stays within its pool budget.
    pool.phases.erase(pool.phases.begin());
    pool.rssi.erase(pool.rssi.begin());
    pool.times.erase(pool.times.begin());
    ++stats_.pool_cap_evictions;
  }
  pool.phases.push_back(read.phase);
  pool.rssi.push_back(read.rssi_dbm);
  pool.times.push_back(read.time_s);
  pool.first_time_s = std::min(pool.first_time_s, read.time_s);
  pool.last_time_s = std::max(pool.last_time_s, read.time_s);
  tag.newest_time_s = std::max(tag.newest_time_s, read.time_s);
  tag.first_time_s = std::min(tag.first_time_s, read.time_s);
  ++stats_.reads_accepted;

  // Amortized push-time pruning: dead channels must not accumulate until
  // the whole tag times out.
  if (tag.newest_time_s >
      tag.last_prune_s + 0.25 * config_.max_round_age_s) {
    prune_stale_pools(tag);
  }
}

void StreamingSensor::push(std::span<const TagRead> reads) {
  for (const TagRead& read : reads) push(read);
}

bool StreamingSensor::round_complete(const PendingTag& tag,
                                     double now_s) const {
  if (tag.antennas.empty()) return false;
  std::size_t monitored = 0, monitored_complete = 0, complete = 0;
  for (std::size_t ai = 0; ai < tag.antennas.size(); ++ai) {
    const bool full =
        tag.antennas[ai].size() >= config_.min_channels_per_antenna;
    if (full) ++complete;
    if (health_.healthy(ai)) {
      ++monitored;
      if (full) ++monitored_complete;
    }
  }
  if (monitored > 0 && monitored_complete == monitored) return true;
  // Degraded completion: a solvable subset has been ready for longer than
  // the round-age window while the remaining ports delivered nothing —
  // waiting longer only makes the ready data staler.
  return complete >= kPartialMinAntennas &&
         now_s - tag.first_time_s > config_.max_round_age_s;
}

RoundTrace StreamingSensor::assemble(PendingTag& tag) const {
  RoundTrace round;
  round.n_antennas = tag.antennas.size();
  const double cutoff = tag.newest_time_s - config_.max_round_age_s;
  for (std::size_t ai = 0; ai < tag.antennas.size(); ++ai) {
    for (auto& [channel, pool] : tag.antennas[ai]) {
      if (pool.last_time_s < cutoff) continue;  // stale pose data
      Dwell dwell;
      dwell.antenna = ai;
      dwell.channel = channel;
      dwell.frequency_hz = pool.frequency_hz;
      dwell.start_time_s = pool.first_time_s;
      dwell.phases = std::move(pool.phases);
      dwell.rssi_dbm = std::move(pool.rssi);
      round.dwells.push_back(std::move(dwell));
    }
  }
  round.duration_s = config_.max_round_age_s;
  return round;
}

std::vector<StreamedResult> StreamingSensor::poll() {
  return poll_at(high_water_s_);
}

std::vector<StreamedResult> StreamingSensor::poll(double now_s) {
  high_water_s_ = std::max(high_water_s_, now_s);
  return poll_at(high_water_s_);
}

std::vector<StreamedResult> StreamingSensor::poll_at(double now_s) {
  // ---- Phase 1: collect every tag whose round completes this poll -----
  // (in pending_ map order, i.e. ascending tag id — deterministic).
  std::vector<std::string> ids;
  std::vector<double> completed_at;
  std::vector<RoundTrace> rounds;
  for (auto it = pending_.begin(); it != pending_.end();) {
    PendingTag& tag = it->second;
    if (round_complete(tag, now_s)) {
      ids.push_back(it->first);
      completed_at.push_back(tag.newest_time_s);
      rounds.push_back(assemble(tag));
      it = pending_.erase(it);
      continue;
    }
    if (now_s - tag.newest_time_s > config_.tag_timeout_s) {
      // Departed tag. If it left behind at least one complete antenna,
      // flush the partial round through the pipeline instead of dropping
      // it silently: the result is almost certainly a reject, but the
      // reject *reason* (and the health monitor's view of which ports
      // delivered nothing) is exactly what an operator needs to see when
      // a minimal rig loses a port and can never complete a round.
      std::size_t complete = 0;
      for (const auto& antenna : tag.antennas) {
        if (antenna.size() >= config_.min_channels_per_antenna) ++complete;
      }
      if (complete > 0) {
        ids.push_back(it->first);
        completed_at.push_back(tag.newest_time_s);
        rounds.push_back(assemble(tag));
      }
      it = pending_.erase(it);
      ++stats_.tags_timed_out;
      continue;
    }
    ++it;
  }

  // ---- Phase 2: sense + account -----------------------------------------
  // All completing tags of this poll in one call, each against the
  // port-health and drift state from the start of the poll. Per-round
  // results are bit-identical for any thread count, engine or none.
  std::vector<SensingResult> sensed;
  try {
    sensed = prism_->sense_batch(rounds, ids, engine_, &health_);
  } catch (const Error&) {
    // A structurally unsolvable assembly (cannot normally happen — push
    // validates geometry) fails the whole call: redo it round by round so
    // the healthy tags still emit, and account the culprit as a solver
    // failure rather than poisoning poll.
    sensed.assign(rounds.size(), SensingResult{});
    for (std::size_t i = 0; i < rounds.size(); ++i) {
      try {
        sensed[i] = std::move(prism_->sense_batch(
            {&rounds[i], 1}, {&ids[i], 1}, engine_, &health_)[0]);
      } catch (const Error&) {
      }
    }
  }
  std::vector<StreamedResult> out;
  out.reserve(ids.size());
  for (std::size_t i = 0; i < sensed.size(); ++i) {
    StreamedResult emitted;
    emitted.tag_id = std::move(ids[i]);
    emitted.completed_at_s = completed_at[i];
    emitted.result = std::move(sensed[i]);
    ++stats_.rounds_emitted;
    switch (emitted.result.grade) {
      case SensingGrade::kFull:
        ++stats_.rounds_full;
        break;
      case SensingGrade::kDegraded:
        ++stats_.rounds_degraded;
        break;
      case SensingGrade::kRejected:
        ++stats_.rounds_rejected;
        switch (emitted.result.reject_reason) {
          case RejectReason::kMobility:
            ++stats_.rejected_mobility;
            break;
          case RejectReason::kTooFewChannels:
            ++stats_.rejected_too_few_channels;
            break;
          case RejectReason::kSolverFailure:
            ++stats_.rejected_solver_failure;
            break;
          case RejectReason::kAntennaHealth:
            ++stats_.rejected_antenna_health;
            break;
          case RejectReason::kNone:
            break;
        }
        break;
    }
    health_.observe_round(emitted.result, config_.min_channels_per_antenna);
    prism_->observe_drift(emitted.result);
    out.push_back(std::move(emitted));
  }

  std::sort(out.begin(), out.end(),
            [](const StreamedResult& a, const StreamedResult& b) {
              if (a.completed_at_s != b.completed_at_s) {
                return a.completed_at_s < b.completed_at_s;
              }
              return a.tag_id < b.tag_id;
            });
  if (track_sink_ != nullptr) {
    // Hand the sorted emissions to the trajectory consumer and let it
    // advance its lifecycle clocks to this poll's "now". The input is
    // already deterministic across thread counts, so the sink's event
    // stream is too.
    track_sink_->observe_emissions(out, now_s);
  }
  return out;
}

std::size_t StreamingSensor::buffered_reads() const {
  std::size_t total = 0;
  for (const auto& [id, tag] : pending_) {
    for (const auto& antenna : tag.antennas) {
      for (const auto& [channel, pool] : antenna) {
        total += pool.phases.size();
      }
    }
  }
  return total;
}

void StreamingSensor::clear() {
  pending_.clear();
  stats_ = {};
  high_water_s_ = 0.0;
  health_.reset();
}

std::vector<TagRead> round_to_reads(const RoundTrace& round,
                                    const std::string& tag_id) {
  std::vector<TagRead> reads;
  for (const Dwell& dwell : round.dwells) {
    for (std::size_t i = 0; i < dwell.phases.size(); ++i) {
      TagRead read;
      read.tag_id = tag_id;
      read.antenna = dwell.antenna;
      read.channel = dwell.channel;
      read.frequency_hz = dwell.frequency_hz;
      read.time_s = dwell.start_time_s + 1e-3 * static_cast<double>(i);
      read.phase = dwell.phases[i];
      read.rssi_dbm = i < dwell.rssi_dbm.size() ? dwell.rssi_dbm[i] : 0.0;
      reads.push_back(std::move(read));
    }
  }
  return reads;
}

}  // namespace rfp
