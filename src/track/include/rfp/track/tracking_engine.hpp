#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "rfp/core/streaming.hpp"
#include "rfp/core/track_sink.hpp"
#include "rfp/core/tracker.hpp"
#include "rfp/track/rotation.hpp"
#include "rfp/track/segmentation.hpp"

/// \file tracking_engine.hpp
/// The trajectory product: consumes per-round SensingResults for a fleet
/// of tags (batch or streaming) and emits a deterministic stream of
/// TrackEvents — per-tag lifecycle (init/confirm/coast/drop) over the
/// constant-velocity position Kalman, continuous rotation via mod-pi
/// unwrapping, and motion segmentation fusing the §V-C detector with
/// tracker innovations. Feed order defines the event stream: identical
/// inputs produce byte-identical events regardless of thread counts,
/// because the engine itself is single-threaded and everything upstream
/// (SensingEngine batches, StreamingSensor emission order) is already
/// deterministic.

namespace rfp::track {

struct TrackingConfig {
  /// Master seam. The engine itself always works when constructed; this
  /// flag is what integrations (rfpd --track, rfprism stream/track,
  /// server sessions) consult before constructing/attaching one, so the
  /// pipeline stays byte-identical to the pre-tracking binary when off.
  bool enable = false;

  TrackerConfig tracker;            ///< position Kalman per tag
  RotationConfig rotation;          ///< rotation unwrap per tag
  SegmentationConfig segmentation;  ///< motion labeling per tag

  /// Accepted fixes before a tentative track is confirmed.
  std::size_t confirm_updates = 3;

  /// No accepted fix for this long => the track coasts (one kCoast
  /// event; predictions keep extrapolating with growing variance).
  double coast_after_s = 30.0;

  /// No accepted fix for this long => the track drops (kDrop event,
  /// state discarded). Must exceed coast_after_s to ever coast.
  double drop_after_s = 90.0;

  /// Measurement-noise inflation for degraded-grade fixes (subset
  /// solves): the track survives antenna handoff/quarantine windows by
  /// accepting the degraded fixes at this multiple of measurement_sigma.
  double degraded_noise_inflation = 3.0;

  /// Concurrent tracks; beyond this the stalest track is dropped.
  std::size_t max_tracks = 4096;
};

enum class TrackPhase : std::uint8_t { kTentative, kConfirmed, kCoasting };
enum class TrackEventKind : std::uint8_t {
  kInit,     ///< track (re)initialized from a fix
  kConfirm,  ///< reached confirm_updates accepted fixes
  kUpdate,   ///< routine per-emission update (accepted or not)
  kCoast,    ///< no accepted fix for coast_after_s
  kDrop,     ///< track discarded (staleness or capacity)
};

const char* to_string(TrackPhase phase);
const char* to_string(TrackEventKind kind);

/// One entry of the trajectory stream.
struct TrackEvent {
  std::string tag_id;
  double time_s = 0.0;
  TrackEventKind kind = TrackEventKind::kUpdate;
  MotionLabel label = MotionLabel::kStatic;
  /// Grade of the driving emission; kRejected for pure time ticks
  /// (coast/drop) and for reject-round updates.
  SensingGrade grade = SensingGrade::kRejected;
  bool fix_accepted = false;  ///< this event's fix entered the filter
  Vec2 position{};            ///< smoothed position at time_s
  Vec2 velocity{};
  double position_variance = 0.0;  ///< per-axis, propagated to time_s
  double angle_rad = 0.0;     ///< cumulative unwrapped rotation
  double rate_rad_s = 0.0;    ///< angular rate
  std::uint64_t updates = 0;  ///< accepted fixes since (re)init
};

/// Monotonic counters (until clear()).
struct TrackingStats {
  std::uint64_t emissions_consumed = 0;
  std::uint64_t fixes_accepted = 0;   ///< entered the position filter
  std::uint64_t fixes_gated = 0;      ///< valid but Mahalanobis-gated
  std::uint64_t degraded_fixes_accepted = 0;
  std::uint64_t mobility_rejects_seen = 0;  ///< §V-C rejects consumed
  std::uint64_t rotation_fixes_gated = 0;
  std::uint64_t tracks_started = 0;   ///< kInit events (incl. re-inits)
  std::uint64_t tracks_confirmed = 0;
  std::uint64_t tracks_coasted = 0;
  std::uint64_t tracks_dropped = 0;
  std::uint64_t events_emitted = 0;
};

/// Read-only view of one live track.
struct TrackSnapshot {
  TrackPhase phase = TrackPhase::kTentative;
  MotionLabel label = MotionLabel::kStatic;
  TrackState kinematics;      ///< posterior at the last accepted fix
  double angle_rad = 0.0;
  double rate_rad_s = 0.0;
  double last_fix_time_s = 0.0;
};

class TrackingEngine final : public TrackSink {
 public:
  explicit TrackingEngine(TrackingConfig config = {});

  /// Fold in one emission (a StreamingSensor emission or a synthesized
  /// one wrapping a batch SensingResult). Emissions must arrive in the
  /// order the caller wants reflected in the event stream.
  void observe(const StreamedResult& emission);

  /// TrackSink: fold in a poll's sorted emissions, then advance(now_s).
  void observe_emissions(std::span<const StreamedResult> emissions,
                         double now_s) override;

  /// Advance the lifecycle clock: tracks past coast_after_s emit kCoast,
  /// past drop_after_s emit kDrop and are discarded. Deterministic
  /// (ascending tag id).
  void advance(double now_s);

  /// Drain the accumulated event stream (in emission order).
  std::vector<TrackEvent> take_events();

  /// Events buffered but not yet taken.
  std::size_t pending_events() const { return events_.size(); }

  std::optional<TrackSnapshot> track(const std::string& tag_id) const;
  std::size_t n_tracks() const { return tracks_.size(); }
  const TrackingStats& stats() const { return stats_; }
  const TrackingConfig& config() const { return config_; }

  /// Drop all tracks, events, and counters.
  void clear();

 private:
  struct Track {
    explicit Track(const TrackingConfig& config)
        : position(config.tracker),
          rotation(config.rotation),
          segmenter(config.segmentation) {}
    Tracker position;
    RotationTracker rotation;
    MotionSegmenter segmenter;
    TrackPhase phase = TrackPhase::kTentative;
    double last_fix_s = 0.0;   ///< last accepted position fix
    double last_seen_s = 0.0;  ///< last emission of any kind
  };

  void emit(const std::string& tag_id, const Track& track, double time_s,
            TrackEventKind kind, SensingGrade grade, bool fix_accepted);
  void start_track(const std::string& tag_id, const StreamedResult& emission);
  void drop_stalest(double now_s);

  TrackingConfig config_;
  std::map<std::string, Track> tracks_;
  TrackingStats stats_;
  std::vector<TrackEvent> events_;
};

}  // namespace rfp::track
