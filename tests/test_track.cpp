/// rfp::track: mod-pi folding and continuous rotation unwrapping, motion
/// segmentation hysteresis, and the TrackingEngine lifecycle
/// (init/confirm/coast/drop, degraded survival, capacity eviction,
/// determinism of the event stream down to the wire bytes).

#include "rfp/track/tracking_engine.hpp"

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "rfp/common/constants.hpp"
#include "rfp/core/streaming.hpp"
#include "rfp/exp/testbed.hpp"
#include "rfp/net/wire.hpp"

namespace rfp::track {
namespace {

// ---- fold_mod_pi --------------------------------------------------------

TEST(TrackRotationFold, IdentityInsideHalfPi) {
  EXPECT_EQ(fold_mod_pi(0.0), 0.0);
  EXPECT_NEAR(fold_mod_pi(0.3), 0.3, 1e-15);
  EXPECT_NEAR(fold_mod_pi(-0.3), -0.3, 1e-15);
  EXPECT_NEAR(fold_mod_pi(1.4), 1.4, 1e-15);
}

TEST(TrackRotationFold, WrapsAcrossTheSeam) {
  // The range is [-pi/2, pi/2): +pi/2 maps to -pi/2, a hair below stays.
  EXPECT_NEAR(fold_mod_pi(kPi / 2.0), -kPi / 2.0, 1e-12);
  EXPECT_NEAR(fold_mod_pi(kPi / 2.0 - 1e-6), kPi / 2.0 - 1e-6, 1e-12);
  EXPECT_NEAR(fold_mod_pi(kPi / 2.0 + 1e-6), -kPi / 2.0 + 1e-6, 1e-12);
  EXPECT_NEAR(fold_mod_pi(kPi), 0.0, 1e-12);
  EXPECT_NEAR(fold_mod_pi(kPi + 0.3), 0.3, 1e-12);
  EXPECT_NEAR(fold_mod_pi(-kPi + 0.3), 0.3, 1e-12);
}

TEST(TrackRotationFold, CongruentModPiOverASweep) {
  for (double d = -10.0; d <= 10.0; d += 0.0137) {
    const double f = fold_mod_pi(d);
    EXPECT_GE(f, -kPi / 2.0);
    EXPECT_LT(f, kPi / 2.0);
    // f == d (mod pi).
    EXPECT_NEAR(std::sin(f - d), 0.0, 1e-9) << "d=" << d;
  }
}

// ---- RotationTracker ----------------------------------------------------

TEST(TrackRotationUnwrap, TracksThroughManyHalfTurns) {
  RotationConfig config;
  config.measurement_sigma_rad = 0.02;
  RotationTracker rot(config);
  const double omega = 0.6;  // rad/s; well under pi/2 per 1 s fix
  for (int k = 0; k <= 30; ++k) {
    const double t = static_cast<double>(k);
    // The sensing pipeline reports alpha folded to [0, pi).
    const double alpha = std::fmod(omega * t, kPi);
    EXPECT_TRUE(rot.update(alpha, t)) << "t=" << t;
  }
  // 18 rad of cumulative rotation is ~5.7 half-turns: only the unwrapped
  // track can represent it.
  EXPECT_NEAR(rot.angle_rad(), omega * 30.0, 0.05);
  EXPECT_NEAR(rot.rate_rad_s(), omega, 0.01);
  EXPECT_GT(rot.angle_rad(), kPi);
}

TEST(TrackRotationUnwrap, SignedRateForReverseSpin) {
  RotationTracker rot;
  const double omega = -0.4;
  for (int k = 0; k <= 25; ++k) {
    const double t = static_cast<double>(k);
    double alpha = std::fmod(omega * t, kPi);
    if (alpha < 0.0) alpha += kPi;  // fold into [0, pi) like the solver
    rot.update(alpha, t);
  }
  EXPECT_NEAR(rot.rate_rad_s(), omega, 0.02);
  EXPECT_LT(rot.angle_rad(), -kPi);
}

TEST(TrackRotationUnwrap, GatesOutliersThenReanchors) {
  RotationTracker rot;  // defaults: gate 10.8, re-anchor after 3
  for (int k = 0; k <= 8; ++k) {
    ASSERT_TRUE(rot.update(0.3, static_cast<double>(k)));
  }
  ASSERT_NEAR(rot.angle_rad(), 0.3, 1e-6);
  // A gross orientation outlier is gated, twice ...
  EXPECT_FALSE(rot.update(1.85, 9.0));
  EXPECT_EQ(rot.rejected_in_a_row(), 1u);
  EXPECT_FALSE(rot.update(1.85, 10.0));
  // ... and the third in a row re-anchors at the nearest representative
  // (cumulative continuity) with the rate relearned from scratch.
  EXPECT_TRUE(rot.update(1.85, 11.0));
  EXPECT_EQ(rot.updates(), 1u);
  EXPECT_EQ(rot.rejected_in_a_row(), 0u);
  EXPECT_NEAR(std::sin(rot.angle_rad() - 1.85), 0.0, 1e-6);
  EXPECT_EQ(rot.rate_rad_s(), 0.0);
}

TEST(TrackRotationUnwrap, NonFiniteAlphaIgnored) {
  RotationTracker rot;
  EXPECT_FALSE(rot.update(std::numeric_limits<double>::quiet_NaN(), 0.0));
  EXPECT_FALSE(rot.initialized());
}

// ---- MotionSegmenter ----------------------------------------------------

MotionEvidence speed_evidence(double speed) {
  MotionEvidence e;
  e.fix_accepted = true;
  e.speed_m_s = speed;
  return e;
}

TEST(TrackSegmentation, TrackerEvidenceNeedsTheHold) {
  MotionSegmenter seg;  // hold_rounds = 2
  // One fast round is noise; the label holds.
  EXPECT_EQ(seg.update(speed_evidence(0.05)), MotionLabel::kStatic);
  // A second consecutive fast round flips it.
  EXPECT_EQ(seg.update(speed_evidence(0.05)), MotionLabel::kMoving);
  // Same on the way back down.
  EXPECT_EQ(seg.update(speed_evidence(0.0)), MotionLabel::kMoving);
  EXPECT_EQ(seg.update(speed_evidence(0.0)), MotionLabel::kStatic);
}

TEST(TrackSegmentation, InterruptedEvidenceRestartsTheHold) {
  MotionSegmenter seg;
  EXPECT_EQ(seg.update(speed_evidence(0.05)), MotionLabel::kStatic);
  EXPECT_EQ(seg.update(speed_evidence(0.0)), MotionLabel::kStatic);
  // The earlier fast round no longer counts toward the hold.
  EXPECT_EQ(seg.update(speed_evidence(0.05)), MotionLabel::kStatic);
  EXPECT_EQ(seg.update(speed_evidence(0.05)), MotionLabel::kMoving);
}

TEST(TrackSegmentation, MobilityRejectFlipsImmediately) {
  MotionSegmenter seg;
  MotionEvidence reject;
  reject.mobility_reject = true;
  // §V-C is direct physical evidence: no hysteresis on the way in.
  EXPECT_EQ(seg.update(reject), MotionLabel::kMoving);
  // Recovery is tracker-derived, so it still needs the hold.
  EXPECT_EQ(seg.update(speed_evidence(0.0)), MotionLabel::kMoving);
  EXPECT_EQ(seg.update(speed_evidence(0.0)), MotionLabel::kStatic);
}

TEST(TrackSegmentation, RotationOutranksTranslation) {
  MotionSegmenter seg;
  MotionEvidence e = speed_evidence(0.05);
  e.rotation_rate_rad_s = 0.2;
  seg.update(e);
  EXPECT_EQ(seg.update(e), MotionLabel::kRotating);
}

TEST(TrackSegmentation, InnovationAloneReadsAsTranslation) {
  MotionSegmenter seg;
  MotionEvidence e;
  e.fix_accepted = true;
  e.innovation2 = 9.0;  // above moving_innovation_chi2 = 6
  seg.update(e);
  EXPECT_EQ(seg.update(e), MotionLabel::kMoving);
}

// ---- TrackingEngine lifecycle -------------------------------------------

StreamedResult fix(const std::string& tag, double t, Vec2 p,
                   SensingGrade grade = SensingGrade::kFull,
                   double alpha = 0.4) {
  StreamedResult e;
  e.tag_id = tag;
  e.completed_at_s = t;
  e.result.valid = true;
  e.result.reject_reason = RejectReason::kNone;
  e.result.grade = grade;
  e.result.position = {p.x, p.y, 0.0};
  e.result.alpha = alpha;
  return e;
}

StreamedResult mobility_reject(const std::string& tag, double t) {
  StreamedResult e;
  e.tag_id = tag;
  e.completed_at_s = t;
  e.result.valid = false;
  e.result.reject_reason = RejectReason::kMobility;
  e.result.grade = SensingGrade::kRejected;
  return e;
}

TEST(TrackLifecycle, InitThenConfirmAtThreeFixes) {
  TrackingEngine engine;
  engine.observe(fix("tag", 0.0, {1.0, 1.0}));
  engine.observe(fix("tag", 10.0, {1.0, 1.0}));
  engine.observe(fix("tag", 20.0, {1.0, 1.0}));
  const auto events = engine.take_events();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].kind, TrackEventKind::kInit);
  EXPECT_EQ(events[1].kind, TrackEventKind::kUpdate);
  EXPECT_EQ(events[2].kind, TrackEventKind::kConfirm);
  EXPECT_TRUE(events[2].fix_accepted);
  EXPECT_EQ(events[2].updates, 3u);
  const auto snap = engine.track("tag");
  ASSERT_TRUE(snap.has_value());
  EXPECT_EQ(snap->phase, TrackPhase::kConfirmed);
  EXPECT_EQ(engine.stats().tracks_confirmed, 1u);
}

TEST(TrackLifecycle, RejectedRoundNeverOpensATrack) {
  TrackingEngine engine;
  engine.observe(mobility_reject("tag", 0.0));
  EXPECT_EQ(engine.n_tracks(), 0u);
  EXPECT_TRUE(engine.take_events().empty());
  EXPECT_EQ(engine.stats().mobility_rejects_seen, 1u);
}

TEST(TrackLifecycle, CoastsThenDropsOnStaleness) {
  TrackingEngine engine;  // coast 30 s, drop 90 s
  engine.observe(fix("tag", 0.0, {1.0, 1.0}));
  engine.observe(fix("tag", 10.0, {1.0, 1.0}));
  engine.observe(fix("tag", 20.0, {1.0, 1.0}));
  engine.take_events();

  engine.advance(60.0);  // idle 40 s > 30
  auto events = engine.take_events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, TrackEventKind::kCoast);
  EXPECT_EQ(engine.track("tag")->phase, TrackPhase::kCoasting);
  // Coasting variance keeps growing with the prediction horizon.
  EXPECT_GT(events[0].position_variance,
            engine.track("tag")->kinematics.position_variance);

  engine.advance(80.0);  // still coasting: no repeat event
  EXPECT_TRUE(engine.take_events().empty());

  engine.advance(115.0);  // idle 95 s > 90
  events = engine.take_events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, TrackEventKind::kDrop);
  EXPECT_EQ(engine.n_tracks(), 0u);
  EXPECT_FALSE(engine.track("tag").has_value());
  EXPECT_EQ(engine.stats().tracks_coasted, 1u);
  EXPECT_EQ(engine.stats().tracks_dropped, 1u);
}

TEST(TrackLifecycle, FixAfterCoastRecoversTheTrack) {
  TrackingEngine engine;
  engine.observe(fix("tag", 0.0, {1.0, 1.0}));
  engine.observe(fix("tag", 10.0, {1.0, 1.0}));
  engine.observe(fix("tag", 20.0, {1.0, 1.0}));
  engine.advance(60.0);
  ASSERT_EQ(engine.track("tag")->phase, TrackPhase::kCoasting);
  engine.observe(fix("tag", 65.0, {1.0, 1.0}));
  EXPECT_EQ(engine.track("tag")->phase, TrackPhase::kConfirmed);
}

TEST(TrackLifecycle, DegradedFixesKeepTheTrackAlive) {
  TrackingEngine engine;
  engine.observe(fix("tag", 0.0, {1.0, 1.0}));
  engine.observe(fix("tag", 10.0, {1.0, 1.0}));
  engine.observe(fix("tag", 20.0, {1.02, 0.98}, SensingGrade::kDegraded));
  const auto events = engine.take_events();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[2].grade, SensingGrade::kDegraded);
  EXPECT_TRUE(events[2].fix_accepted);
  EXPECT_EQ(engine.stats().degraded_fixes_accepted, 1u);
  EXPECT_EQ(engine.stats().fixes_gated, 0u);
}

TEST(TrackLifecycle, GateStormReinitializesTheTrack) {
  TrackingEngine engine;  // tracker gate 13.8, re-init after 3
  for (int k = 0; k < 4; ++k) {
    engine.observe(fix("tag", 10.0 * k, {1.0, 1.0}));
  }
  engine.take_events();

  // The tag was re-shelved meters away: the first fixes there are gated,
  // the third re-anchors the track (kInit again, updates back to 1).
  engine.observe(fix("tag", 40.0, {3.0, 2.0}));
  engine.observe(fix("tag", 50.0, {3.0, 2.0}));
  engine.observe(fix("tag", 60.0, {3.0, 2.0}));
  const auto events = engine.take_events();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_FALSE(events[0].fix_accepted);
  EXPECT_FALSE(events[1].fix_accepted);
  EXPECT_EQ(events[2].kind, TrackEventKind::kInit);
  EXPECT_TRUE(events[2].fix_accepted);
  EXPECT_EQ(events[2].updates, 1u);
  EXPECT_EQ(engine.stats().fixes_gated, 2u);
  EXPECT_EQ(engine.stats().tracks_started, 2u);
  EXPECT_EQ(engine.track("tag")->phase, TrackPhase::kTentative);
  EXPECT_NEAR(engine.track("tag")->kinematics.position.x, 3.0, 1e-9);
}

TEST(TrackLifecycle, CapacityEvictsTheStalestTrack) {
  TrackingConfig config;
  config.max_tracks = 2;
  TrackingEngine engine(config);
  engine.observe(fix("a", 0.0, {0.5, 0.5}));
  engine.observe(fix("b", 1.0, {1.0, 1.0}));
  engine.take_events();
  engine.observe(fix("c", 2.0, {1.5, 1.5}));
  const auto events = engine.take_events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].kind, TrackEventKind::kDrop);
  EXPECT_EQ(events[0].tag_id, "a");
  EXPECT_EQ(events[1].kind, TrackEventKind::kInit);
  EXPECT_EQ(events[1].tag_id, "c");
  EXPECT_EQ(engine.n_tracks(), 2u);
  EXPECT_FALSE(engine.track("a").has_value());
}

TEST(TrackLifecycle, MobilityRejectLabelsTagMoving) {
  TrackingEngine engine;
  engine.observe(fix("tag", 0.0, {1.0, 1.0}));
  EXPECT_EQ(engine.track("tag")->label, MotionLabel::kStatic);
  EXPECT_FALSE(engine.track("unknown").has_value());

  engine.observe(mobility_reject("tag", 10.0));
  EXPECT_EQ(engine.track("tag")->label, MotionLabel::kMoving);
  const auto events = engine.take_events();
  EXPECT_EQ(events.back().label, MotionLabel::kMoving);
  EXPECT_FALSE(events.back().fix_accepted);

  // Two consecutive quiet rounds clear the label (hysteresis hold).
  engine.observe(fix("tag", 20.0, {1.0, 1.0}));
  engine.observe(fix("tag", 30.0, {1.0, 1.0}));
  EXPECT_EQ(engine.track("tag")->label, MotionLabel::kStatic);
}

TEST(TrackLifecycle, StaleFixDoesNotRewindTheFilter) {
  TrackingEngine engine;
  engine.observe(fix("tag", 0.0, {1.0, 1.0}));
  engine.observe(fix("tag", 10.0, {1.0, 1.0}));
  // A round completing out of order across polls must not move time
  // backwards inside the Kalman filters.
  engine.observe(fix("tag", 5.0, {1.0, 1.0}));
  EXPECT_EQ(engine.track("tag")->last_fix_time_s, 10.0);
  EXPECT_EQ(engine.stats().emissions_consumed, 3u);
}

TEST(TrackLifecycle, ClearDropsEverything) {
  TrackingEngine engine;
  engine.observe(fix("tag", 0.0, {1.0, 1.0}));
  engine.clear();
  EXPECT_EQ(engine.n_tracks(), 0u);
  EXPECT_EQ(engine.pending_events(), 0u);
  EXPECT_EQ(engine.stats().emissions_consumed, 0u);
}

// ---- Determinism --------------------------------------------------------

std::vector<StreamedResult> mixed_sequence() {
  std::vector<StreamedResult> seq;
  for (int k = 0; k < 12; ++k) {
    const double t = 10.0 * k;
    seq.push_back(fix("a", t, {0.5 + 0.01 * k, 0.5}, SensingGrade::kFull,
                      std::fmod(0.2 * k, kPi)));
    if (k % 3 == 2) {
      seq.push_back(mobility_reject("b", t + 1.0));
    } else {
      seq.push_back(fix("b", t + 1.0, {1.2, 1.2 + 0.005 * k},
                        k % 2 == 0 ? SensingGrade::kFull
                                   : SensingGrade::kDegraded));
    }
  }
  return seq;
}

TEST(TrackDeterminism, SameEmissionsSameEventBytes) {
  const std::vector<StreamedResult> seq = mixed_sequence();

  // One engine consumes the whole sequence as one poll, another in
  // three chunks with interleaved clock advances: the canonical wire
  // encoding of the event streams must be byte-identical.
  TrackingEngine one;
  one.observe_emissions(seq, 130.0);
  const auto events_one = one.take_events();

  TrackingEngine chunked;
  const std::size_t third = seq.size() / 3;
  chunked.observe_emissions({seq.data(), third}, seq[third - 1].completed_at_s);
  chunked.observe_emissions({seq.data() + third, third},
                            seq[2 * third - 1].completed_at_s);
  chunked.observe_emissions({seq.data() + 2 * third, seq.size() - 2 * third},
                            130.0);
  const auto events_chunked = chunked.take_events();

  EXPECT_EQ(net::encode_track_events(events_one),
            net::encode_track_events(events_chunked));
  EXPECT_EQ(one.stats().fixes_accepted, chunked.stats().fixes_accepted);
}

TEST(TrackDeterminism, AttachedSinkLeavesEmissionsByteIdentical) {
  // The tracking seam must be observational: a StreamingSensor with a
  // TrackingEngine attached emits bit-identical results to one without.
  static const Testbed bed;
  const TagState state = bed.tag_state({0.8, 1.2}, 0.5, "glass");
  const auto reads = round_to_reads(bed.collect(state, 77), bed.tag_id());

  StreamingSensor plain(bed.prism());
  plain.push(reads);
  const auto baseline = plain.poll();

  TrackingEngine engine;
  StreamingSensor tracked_sensor(bed.prism());
  tracked_sensor.attach_track_sink(&engine);
  tracked_sensor.push(reads);
  const auto tracked = tracked_sensor.poll();

  EXPECT_EQ(net::encode_stream_results(baseline),
            net::encode_stream_results(tracked));
  // And the sink really consumed the poll.
  EXPECT_EQ(engine.stats().emissions_consumed, tracked.size());
}

}  // namespace
}  // namespace rfp::track
