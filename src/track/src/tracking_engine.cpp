#include "rfp/track/tracking_engine.hpp"

#include <cmath>
#include <utility>

#include "rfp/common/error.hpp"

namespace rfp::track {

const char* to_string(TrackPhase phase) {
  switch (phase) {
    case TrackPhase::kTentative:
      return "tentative";
    case TrackPhase::kConfirmed:
      return "confirmed";
    case TrackPhase::kCoasting:
      return "coasting";
  }
  return "?";
}

const char* to_string(TrackEventKind kind) {
  switch (kind) {
    case TrackEventKind::kInit:
      return "init";
    case TrackEventKind::kConfirm:
      return "confirm";
    case TrackEventKind::kUpdate:
      return "update";
    case TrackEventKind::kCoast:
      return "coast";
    case TrackEventKind::kDrop:
      return "drop";
  }
  return "?";
}

TrackingEngine::TrackingEngine(TrackingConfig config)
    : config_(std::move(config)) {
  require(config_.confirm_updates >= 1,
          "TrackingEngine: confirm_updates must be >= 1");
  require(config_.coast_after_s > 0.0 &&
              config_.drop_after_s > config_.coast_after_s,
          "TrackingEngine: need 0 < coast_after_s < drop_after_s");
  require(config_.degraded_noise_inflation >= 1.0,
          "TrackingEngine: degraded_noise_inflation must be >= 1");
  require(config_.max_tracks >= 1, "TrackingEngine: max_tracks must be >= 1");
}

void TrackingEngine::emit(const std::string& tag_id, const Track& track,
                          double time_s, TrackEventKind kind,
                          SensingGrade grade, bool fix_accepted) {
  TrackEvent ev;
  ev.tag_id = tag_id;
  ev.time_s = time_s;
  ev.kind = kind;
  ev.label = track.segmenter.label();
  ev.grade = grade;
  ev.fix_accepted = fix_accepted;
  // predict_state (not state): coast/reject events must report the
  // variance propagated to the event time, not the stale posterior.
  if (const auto st = track.position.predict_state(time_s)) {
    ev.position = st->position;
    ev.velocity = st->velocity;
    ev.position_variance = st->position_variance;
    ev.updates = st->updates;
  }
  ev.angle_rad = track.rotation.angle_rad();
  ev.rate_rad_s = track.rotation.rate_rad_s();
  events_.push_back(std::move(ev));
  ++stats_.events_emitted;
}

void TrackingEngine::drop_stalest(double now_s) {
  auto stalest = tracks_.begin();
  for (auto it = tracks_.begin(); it != tracks_.end(); ++it) {
    if (it->second.last_seen_s < stalest->second.last_seen_s) stalest = it;
  }
  emit(stalest->first, stalest->second, now_s, TrackEventKind::kDrop,
       SensingGrade::kRejected, false);
  ++stats_.tracks_dropped;
  tracks_.erase(stalest);
}

void TrackingEngine::start_track(const std::string& tag_id,
                                 const StreamedResult& emission) {
  const double t = emission.completed_at_s;
  if (tracks_.size() >= config_.max_tracks) drop_stalest(t);
  Track& track = tracks_.emplace(tag_id, Track(config_)).first->second;
  track.position.update(emission.result, t);
  track.rotation.update(emission.result.alpha, t);
  track.last_fix_s = t;
  track.last_seen_s = t;
  MotionEvidence evidence;
  evidence.fix_accepted = true;
  track.segmenter.update(evidence);
  ++stats_.tracks_started;
  ++stats_.fixes_accepted;
  if (emission.result.grade == SensingGrade::kDegraded) {
    ++stats_.degraded_fixes_accepted;
  }
  emit(tag_id, track, t, TrackEventKind::kInit, emission.result.grade, true);
  if (config_.confirm_updates <= 1) {
    track.phase = TrackPhase::kConfirmed;
    ++stats_.tracks_confirmed;
    emit(tag_id, track, t, TrackEventKind::kConfirm, emission.result.grade,
         true);
  }
}

void TrackingEngine::observe(const StreamedResult& emission) {
  ++stats_.emissions_consumed;
  const SensingResult& result = emission.result;
  const double t = emission.completed_at_s;
  const bool mobility_reject =
      !result.valid && result.reject_reason == RejectReason::kMobility;
  if (mobility_reject) ++stats_.mobility_rejects_seen;

  const auto it = tracks_.find(emission.tag_id);
  if (it == tracks_.end()) {
    // Rejected rounds never open a track: there is no pose to anchor on.
    if (result.valid) start_track(emission.tag_id, emission);
    return;
  }
  Track& track = it->second;
  track.last_seen_s = std::max(track.last_seen_s, t);

  if (!result.valid) {
    // No pose this round — pure segmentation evidence. A §V-C mobility
    // reject is the strongest "it moved" witness there is.
    MotionEvidence evidence;
    evidence.mobility_reject = mobility_reject;
    if (const auto st = track.position.predict_state(t)) {
      evidence.speed_m_s = std::hypot(st->velocity.x, st->velocity.y);
    }
    evidence.rotation_rate_rad_s = std::abs(track.rotation.rate_rad_s());
    track.segmenter.update(evidence);
    emit(emission.tag_id, track, t, TrackEventKind::kUpdate,
         SensingGrade::kRejected, false);
    return;
  }

  // ---- Position fix (possibly degraded) -------------------------------
  const double noise_scale = result.grade == SensingGrade::kDegraded
                                 ? config_.degraded_noise_inflation
                                 : 1.0;
  double innovation2 = 0.0;
  bool accepted = false;
  // Monotonic-time guard: a hostile stream can complete rounds out of
  // order across polls.
  if (t >= track.position.last_update_time_s()) {
    accepted = track.position.update(result, t, noise_scale, &innovation2);
  }
  const auto state = track.position.state();
  // Tracker::initialize resets updates to 1: an accepted fix landing
  // there means the gate storm re-anchored the track.
  const bool reinitialized = accepted && state && state->updates == 1;

  if (accepted) {
    ++stats_.fixes_accepted;
    if (result.grade == SensingGrade::kDegraded) {
      ++stats_.degraded_fixes_accepted;
    }
  } else {
    ++stats_.fixes_gated;
  }

  bool rotation_ok = false;
  if (t >= track.rotation.last_update_time_s()) {
    const bool was_tracking = track.rotation.initialized();
    rotation_ok = track.rotation.update(result.alpha, t);
    if (!rotation_ok && was_tracking) ++stats_.rotation_fixes_gated;
  }

  TrackEventKind kind = TrackEventKind::kUpdate;
  if (accepted) {
    track.last_fix_s = t;
    if (reinitialized) {
      track.phase = TrackPhase::kTentative;
      ++stats_.tracks_started;
      kind = TrackEventKind::kInit;
    } else if (track.phase != TrackPhase::kConfirmed && state &&
               state->updates >= config_.confirm_updates) {
      track.phase = TrackPhase::kConfirmed;
      ++stats_.tracks_confirmed;
      kind = TrackEventKind::kConfirm;
    } else if (track.phase == TrackPhase::kCoasting) {
      track.phase = TrackPhase::kConfirmed;  // recovered mid-coast
    }
  }

  MotionEvidence evidence;
  evidence.fix_accepted = accepted;
  evidence.innovation2 = innovation2;
  if (state) {
    evidence.speed_m_s = std::hypot(state->velocity.x, state->velocity.y);
  }
  evidence.rotation_rate_rad_s = std::abs(track.rotation.rate_rad_s());
  track.segmenter.update(evidence);

  emit(emission.tag_id, track, t, kind, result.grade, accepted);
}

void TrackingEngine::observe_emissions(
    std::span<const StreamedResult> emissions, double now_s) {
  for (const StreamedResult& emission : emissions) observe(emission);
  advance(now_s);
}

void TrackingEngine::advance(double now_s) {
  for (auto it = tracks_.begin(); it != tracks_.end();) {
    Track& track = it->second;
    const double idle = now_s - track.last_fix_s;
    if (idle > config_.drop_after_s) {
      emit(it->first, track, now_s, TrackEventKind::kDrop,
           SensingGrade::kRejected, false);
      ++stats_.tracks_dropped;
      it = tracks_.erase(it);
      continue;
    }
    if (idle > config_.coast_after_s && track.phase != TrackPhase::kCoasting) {
      track.phase = TrackPhase::kCoasting;
      ++stats_.tracks_coasted;
      emit(it->first, track, now_s, TrackEventKind::kCoast,
           SensingGrade::kRejected, false);
    }
    ++it;
  }
}

std::vector<TrackEvent> TrackingEngine::take_events() {
  return std::exchange(events_, {});
}

std::optional<TrackSnapshot> TrackingEngine::track(
    const std::string& tag_id) const {
  const auto it = tracks_.find(tag_id);
  if (it == tracks_.end()) return std::nullopt;
  const Track& track = it->second;
  TrackSnapshot snap;
  snap.phase = track.phase;
  snap.label = track.segmenter.label();
  if (const auto st = track.position.state()) snap.kinematics = *st;
  snap.angle_rad = track.rotation.angle_rad();
  snap.rate_rad_s = track.rotation.rate_rad_s();
  snap.last_fix_time_s = track.last_fix_s;
  return snap;
}

void TrackingEngine::clear() {
  tracks_.clear();
  events_.clear();
  stats_ = {};
}

}  // namespace rfp::track
