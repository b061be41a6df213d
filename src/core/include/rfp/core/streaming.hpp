#pragma once

#include <map>
#include <string>
#include <vector>

#include "rfp/core/antenna_health.hpp"
#include "rfp/core/engine.hpp"
#include "rfp/core/pipeline.hpp"
#include "rfp/rfsim/faults.hpp"

/// \file streaming.hpp
/// Incremental multi-tag ingestion. A production reader does not deliver
/// tidy per-tag rounds: it streams interleaved (tag, antenna, channel,
/// phase, rssi) reports for the whole population — with duplicates,
/// reordering, stalls, and dead ports mixed in. StreamingSensor assembles
/// reads into per-tag hop rounds under hard memory bounds and runs the
/// RF-Prism pipeline whenever a tag's round completes — the shape a
/// warehouse integration actually consumes.

namespace rfp {

class TrackSink;  // see track_sink.hpp

/// One tag report from the reader stream. Alias of rfsim's StreamRead so
/// FaultInjector::apply_stream perturbs exactly what push() ingests.
using TagRead = StreamRead;

struct StreamingConfig {
  /// A tag's round is complete when every *monitored-healthy* antenna has
  /// at least this many distinct channels.
  std::size_t min_channels_per_antenna = 40;

  /// Reads older than this relative to the newest read of the same tag
  /// are discarded (on arrival and when pools are pruned): stale pose data.
  double max_round_age_s = 30.0;

  /// Drop a tag's partial state entirely if it has not been read for this
  /// long (departed tags).
  double tag_timeout_s = 120.0;

  // -- Memory bounds (all enforced; sizing is worst-case multiplicative:
  //    max_pending_tags * n_antennas * max_channels_per_antenna *
  //    max_reads_per_pool reads) ----------------------------------------
  /// Tags assembled concurrently; beyond this the stalest pending tag is
  /// evicted to admit a new one.
  std::size_t max_pending_tags = 4096;
  /// Distinct channel pools per (tag, antenna); beyond this the stalest
  /// pool is evicted (also bounds adversarial/garbage channel indices).
  std::size_t max_channels_per_antenna = 64;
  /// Raw reads pooled per (tag, antenna, channel); at the cap the oldest
  /// read is evicted first (a chattering tag cannot grow a pool forever).
  std::size_t max_reads_per_pool = 64;

  /// Port-health tuning of the sensor's AntennaHealthMonitor, which
  /// watches every emitted round and drives round completion and sensing
  /// (quarantined ports are not waited for).
  AntennaHealthConfig health;
};

/// Ingestion / emission counters. All monotonically increasing until
/// clear().
struct StreamingStats {
  std::uint64_t reads_accepted = 0;
  // -- reads dropped, by cause ------------------------------------------
  std::uint64_t duplicates_dropped = 0;  ///< exact (time, phase) redelivery
  std::uint64_t stale_dropped = 0;       ///< older than the round-age window
  std::uint64_t pool_cap_evictions = 0;  ///< oldest read evicted, pool full
  // -- structural evictions ---------------------------------------------
  std::uint64_t channel_evictions = 0;   ///< stalest pool evicted, port full
  std::uint64_t stale_pools_pruned = 0;  ///< pools pruned at push() time
  std::uint64_t tag_evictions = 0;       ///< stalest tag evicted, sensor full
  std::uint64_t tags_timed_out = 0;      ///< departed tags dropped by poll()
  // -- emissions, by outcome --------------------------------------------
  std::uint64_t rounds_emitted = 0;      ///< total poll() emissions
  std::uint64_t rounds_full = 0;         ///< grade kFull
  std::uint64_t rounds_degraded = 0;     ///< grade kDegraded
  std::uint64_t rounds_rejected = 0;     ///< grade kRejected
  std::uint64_t rejected_mobility = 0;
  std::uint64_t rejected_too_few_channels = 0;
  std::uint64_t rejected_solver_failure = 0;
  std::uint64_t rejected_antenna_health = 0;
};

/// A completed sensing emission.
struct StreamedResult {
  std::string tag_id;
  double completed_at_s = 0.0;  ///< time of the newest read in the round
  SensingResult result;
};

/// Assembles reads into rounds and senses them.
///
/// The pipeline reference must outlive the sensor. Reads may arrive in
/// any interleaving and any timestamp order; per (tag, antenna, channel)
/// the reads of the current round are pooled (the pipeline's dwell
/// aggregation handles pi jumps and averaging). Memory is bounded by the
/// StreamingConfig caps no matter how adversarial the stream is. A read
/// whose (timestamp, phase) exactly duplicates one already pooled for the
/// same (tag, antenna, channel) — LLRP redelivery — is dropped. A tag with
/// at least 3 complete ports (min_channels_per_antenna channels each)
/// emits a degraded round once it has waited longer than max_round_age_s
/// for the rest: that keeps a deployment with a dead port emitting poses
/// *before* the health monitor quarantines the port.
class StreamingSensor {
 public:
  /// Each poll() senses all completing tags with one RfPrism::sense_batch
  /// call: fanned across the engine's pool when an `engine` is given (both
  /// must outlive the sensor), on the calling thread otherwise. Emissions
  /// are bit-identical either way. Every round sensed in a poll sees the
  /// port-health and drift state from the poll's start; the health
  /// monitor and the prism's drift estimate advance as the poll's
  /// emissions are accounted (a snapshot is the only order-free
  /// definition under concurrency, and it is what keeps emissions
  /// independent of tag-id ordering).
  ///
  /// With `disentangle.drift.enable` set, every emission is fed to the
  /// prism's own estimate (RfPrism::observe_drift), in tag-id order within
  /// a poll: sensors and senses over the same prism share one estimate.
  StreamingSensor(const RfPrism& prism, StreamingConfig config = {},
                  SensingEngine* engine = nullptr);

  /// Ingest one read. Throws InvalidArgument on an empty tag id or an
  /// antenna index outside the pipeline geometry; never throws on merely
  /// hostile data (duplicates, stale or reordered timestamps).
  void push(const TagRead& read);

  /// Ingest a batch.
  void push(std::span<const TagRead> reads);

  /// Emit results for every tag whose round is complete; those tags'
  /// buffers are reset for the next round. Call at any cadence.
  ///
  /// Emission order guarantee: results are sorted by ascending
  /// completed_at_s (ties broken by tag id), so downstream consumers see
  /// time-ordered emissions regardless of tag-id ordering internally.
  ///
  /// "Now" is the high-water mark of every read timestamp seen so far —
  /// or the explicit clock passed to poll(double), which a caller should
  /// prefer: with buffered time alone, a fully stalled stream can never
  /// expire departed tags.
  ///
  /// A tag that times out with at least one complete antenna is flushed
  /// through the pipeline (typically as a kRejected emission naming the
  /// reason) rather than dropped silently, so a rig that can never
  /// complete a round — e.g. 3 antennas with a dead port — still surfaces
  /// *why* in its emissions and port-health state.
  std::vector<StreamedResult> poll();

  /// Poll against an injected wall clock (seconds, same epoch as
  /// TagRead::time_s). The clock only moves the sensor's notion of "now"
  /// forward, never backward.
  std::vector<StreamedResult> poll(double now_s);

  /// Tags currently being assembled.
  std::size_t pending_tags() const { return pending_.size(); }

  /// Total reads buffered across tags.
  std::size_t buffered_reads() const;

  /// Ingestion/emission counters since construction or clear().
  const StreamingStats& stats() const { return stats_; }

  /// Port-health monitor state.
  const AntennaHealthMonitor& health() const { return health_; }

  /// Attach a trajectory consumer (see track_sink.hpp): every poll's
  /// sorted emissions are handed to the sink after accounting. The sink
  /// must outlive the sensor (or be detached with nullptr first).
  /// With no sink attached, behavior is byte-identical to before this
  /// hook existed.
  void attach_track_sink(TrackSink* sink) { track_sink_ = sink; }

  /// Currently attached sink (nullptr when none).
  TrackSink* track_sink() const { return track_sink_; }

  /// Drop all partial state, counters, and port-health history. The drift
  /// estimate is the deployment's, not the sensor's: clear() leaves it
  /// alone.
  void clear();

 private:
  struct ChannelPool {
    double frequency_hz = 0.0;
    std::vector<double> phases;
    std::vector<double> rssi;
    std::vector<double> times;  ///< per-read timestamps (dedup + staleness)
    double first_time_s = 0.0;
    double last_time_s = 0.0;
  };
  struct PendingTag {
    // per antenna: channel -> pooled reads
    std::vector<std::map<std::size_t, ChannelPool>> antennas;
    double newest_time_s = 0.0;
    double first_time_s = 0.0;
    double last_prune_s = 0.0;
  };

  bool round_complete(const PendingTag& tag, double now_s) const;
  RoundTrace assemble(PendingTag& tag) const;
  void prune_stale_pools(PendingTag& tag);
  void evict_stalest_tag();
  std::vector<StreamedResult> poll_at(double now_s);

  const RfPrism* prism_;
  StreamingConfig config_;
  SensingEngine* engine_ = nullptr;
  std::map<std::string, PendingTag> pending_;
  StreamingStats stats_;
  AntennaHealthMonitor health_;
  double high_water_s_ = 0.0;

  /// Optional trajectory consumer; not owned. See attach_track_sink().
  TrackSink* track_sink_ = nullptr;
};

/// Flatten a simulated hop round into the interleaved read stream a real
/// reader would deliver for `tag_id` (reads spaced evenly within each
/// dwell). The inverse of what StreamingSensor::poll() assembles.
std::vector<TagRead> round_to_reads(const RoundTrace& round,
                                    const std::string& tag_id);

}  // namespace rfp
