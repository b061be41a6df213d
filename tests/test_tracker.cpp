#include "rfp/core/tracker.hpp"

#include <gtest/gtest.h>

#include "rfp/common/error.hpp"
#include "rfp/common/rng.hpp"
#include "rfp/exp/testbed.hpp"

namespace rfp {
namespace {

SensingResult fix_at(Vec2 p) {
  SensingResult r;
  r.valid = true;
  r.reject_reason = RejectReason::kNone;
  r.position = {p.x, p.y, 0.0};
  return r;
}

TEST(Tracker, UninitializedHasNoState) {
  Tracker tracker;
  EXPECT_FALSE(tracker.state().has_value());
}

TEST(Tracker, FirstFixInitializes) {
  Tracker tracker;
  EXPECT_TRUE(tracker.update(fix_at({1.0, 2.0}), 0.0));
  const auto state = tracker.state();
  ASSERT_TRUE(state.has_value());
  EXPECT_EQ(state->position, (Vec2{1.0, 2.0}));
  EXPECT_EQ(state->velocity, (Vec2{0.0, 0.0}));
  EXPECT_EQ(state->updates, 1u);
}

TEST(Tracker, InvalidFixIgnored) {
  Tracker tracker;
  SensingResult invalid;
  invalid.valid = false;
  EXPECT_FALSE(tracker.update(invalid, 0.0));
  EXPECT_FALSE(tracker.state().has_value());
}

TEST(Tracker, LearnsConstantVelocity) {
  Tracker tracker;
  // Tag advancing at (0.05, -0.02) m/s, fixes every 10 s with no noise.
  for (int k = 0; k < 12; ++k) {
    const double t = 10.0 * k;
    tracker.update(fix_at({0.5 + 0.05 * t, 1.5 - 0.02 * t}), t);
  }
  const auto state = tracker.state();
  ASSERT_TRUE(state.has_value());
  EXPECT_NEAR(state->velocity.x, 0.05, 0.01);
  EXPECT_NEAR(state->velocity.y, -0.02, 0.01);
  // Prediction extrapolates.
  const auto predicted = tracker.predict_state(120.0);
  ASSERT_TRUE(predicted.has_value());
  EXPECT_NEAR(predicted->position.x, 0.5 + 0.05 * 120.0, 0.05);
}

TEST(Tracker, SmoothsNoisyFixes) {
  Rng rng(301);
  const double sigma = 0.06;
  double raw_err = 0.0, smoothed_err = 0.0;
  int n = 0;
  Tracker tracker;
  for (int k = 0; k < 50; ++k) {
    const double t = 10.0 * k;
    const Vec2 truth{0.3 + 0.01 * t, 1.0};
    const Vec2 noisy{truth.x + rng.gaussian(0.0, sigma),
                     truth.y + rng.gaussian(0.0, sigma)};
    tracker.update(fix_at(noisy), t);
    if (k >= 10) {  // after convergence
      raw_err += distance(noisy, truth);
      smoothed_err += distance(tracker.state()->position, truth);
      ++n;
    }
  }
  // 10 s between fixes limits the information reuse; ~20-30%% error
  // reduction is the steady state for this q/r ratio.
  EXPECT_LT(smoothed_err / n, 0.85 * raw_err / n);
}

TEST(Tracker, GatesGrossOutlier) {
  Tracker tracker;
  for (int k = 0; k < 5; ++k) {
    tracker.update(fix_at({1.0, 1.0}), 10.0 * k);
  }
  // A wild fix 2 m away must be rejected, leaving the track in place.
  EXPECT_FALSE(tracker.update(fix_at({3.0, 1.0}), 50.0));
  EXPECT_EQ(tracker.rejected_in_a_row(), 1u);
  EXPECT_NEAR(tracker.state()->position.x, 1.0, 0.05);
}

TEST(Tracker, ReinitializesAfterPersistentJump) {
  TrackerConfig config;
  config.max_consecutive_rejections = 3;
  Tracker tracker(config);
  for (int k = 0; k < 5; ++k) {
    tracker.update(fix_at({1.0, 1.0}), 10.0 * k);
  }
  // The tag really was moved: three consistent fixes at the new spot.
  tracker.update(fix_at({1.9, 0.4}), 60.0);
  tracker.update(fix_at({1.9, 0.4}), 70.0);
  const bool third = tracker.update(fix_at({1.9, 0.4}), 80.0);
  EXPECT_TRUE(third);  // re-initialized at the new position
  EXPECT_NEAR(tracker.state()->position.x, 1.9, 0.05);
}

TEST(Tracker, PredictStateGrowsVarianceWhileCoasting) {
  Tracker tracker;
  for (int k = 0; k < 6; ++k) {
    tracker.update(fix_at({1.0 + 0.01 * k, 2.0}), 10.0 * k);
  }
  const auto posterior = tracker.state();
  ASSERT_TRUE(posterior.has_value());

  // At the last update time, predict_state is exactly the posterior.
  const auto at_fix = tracker.predict_state(50.0);
  ASSERT_TRUE(at_fix.has_value());
  EXPECT_EQ(at_fix->position, posterior->position);
  EXPECT_EQ(at_fix->velocity, posterior->velocity);
  EXPECT_EQ(at_fix->position_variance, posterior->position_variance);
  EXPECT_EQ(at_fix->updates, posterior->updates);

  // Coasting: the mean extrapolates along the velocity, and (unlike
  // state()) the reported variance keeps growing with the horizon.
  const auto later = tracker.predict_state(250.0);
  ASSERT_TRUE(later.has_value());
  EXPECT_NEAR(later->position.x,
              posterior->position.x + 200.0 * posterior->velocity.x, 1e-12);
  EXPECT_EQ(later->velocity, posterior->velocity);
  EXPECT_GT(later->position_variance, posterior->position_variance);
  const auto even_later = tracker.predict_state(500.0);
  EXPECT_GT(even_later->position_variance, later->position_variance);
  // state() itself must stay frozen at the posterior.
  EXPECT_EQ(tracker.state()->position_variance, posterior->position_variance);
}

TEST(Tracker, PredictStateBeforeFirstFixIsEmpty) {
  Tracker tracker;
  EXPECT_FALSE(tracker.predict_state(1.0).has_value());
}

TEST(Tracker, ResetDropsTrack) {
  Tracker tracker;
  tracker.update(fix_at({1.0, 1.0}), 0.0);
  tracker.reset();
  EXPECT_FALSE(tracker.state().has_value());
}

TEST(Tracker, TimeGoingBackwardsThrows) {
  Tracker tracker;
  tracker.update(fix_at({1.0, 1.0}), 10.0);
  EXPECT_THROW(tracker.update(fix_at({1.0, 1.0}), 5.0), InvalidArgument);
}

TEST(Tracker, BadConfigThrows) {
  TrackerConfig config;
  config.measurement_sigma = 0.0;
  EXPECT_THROW(Tracker{config}, InvalidArgument);
}

TEST(Tracker, EndToEndWithSensedFixes) {
  // A tag stepped 6 cm between rounds (static within each round): the
  // tracker smooths the per-round sensing noise and recovers the step
  // velocity.
  const Testbed bed{};
  Tracker tracker;
  double sensed_err = 0.0, tracked_err = 0.0;
  int n = 0;
  for (int k = 0; k < 12; ++k) {
    const double t = 10.0 * k;
    const Vec2 truth{0.4 + 0.006 * t, 1.2};
    const SensingResult r =
        bed.sense(bed.tag_state(truth, 0.4, "plastic"), 400 + k);
    if (!r.valid) continue;
    tracker.update(r, t);
    if (k >= 6) {
      sensed_err += distance(r.position.xy(), truth);
      tracked_err += distance(tracker.state()->position, truth);
      ++n;
    }
  }
  ASSERT_GE(n, 4);
  EXPECT_LT(tracked_err, sensed_err);
  EXPECT_NEAR(tracker.state()->velocity.x, 0.006, 0.004);
}

}  // namespace
}  // namespace rfp
