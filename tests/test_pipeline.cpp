#include "rfp/core/pipeline.hpp"

#include <gtest/gtest.h>

#include "rfp/common/angles.hpp"
#include "rfp/common/error.hpp"
#include "support/core_test_util.hpp"

namespace rfp {
namespace {

using testutil::exact_geometry;
using testutil::noiseless_channel;
using testutil::noiseless_reader;

class PipelineTest : public ::testing::Test {
 protected:
  PipelineTest() : scene_(make_scene_2d(101)), tag_(make_tag_hardware("t", 101)) {
    RfPrismConfig config;
    config.geometry = exact_geometry(scene_);
    prism_ = std::make_unique<RfPrism>(config);
    reference_ = ReferencePose{Vec3{1.0, 1.0, 0.0}, planar_polarization(0.0)};
  }

  void calibrate() {
    Rng rng(1);
    const TagHardware ref = make_tag_hardware("ref", 101);
    const TagState state{reference_.position, reference_.polarization, "none"};
    prism_->calibrate_reader(collect_round(scene_, noiseless_reader(),
                                           noiseless_channel(), ref, state, 1,
                                           rng),
                             reference_);
    prism_->calibrate_tag("t",
                          collect_round(scene_, noiseless_reader(),
                                        noiseless_channel(), tag_, state, 2,
                                        rng),
                          reference_);
  }

  SensingResult sense(const TagState& state, std::uint64_t trial) {
    Rng rng(trial);
    return prism_->sense(collect_round(scene_, noiseless_reader(),
                                       noiseless_channel(), tag_, state,
                                       trial, rng),
                         "t");
  }

  Scene scene_;
  TagHardware tag_;
  std::unique_ptr<RfPrism> prism_;
  ReferencePose reference_;
};

TEST_F(PipelineTest, NoiselessEndToEndIsNearExact) {
  calibrate();
  const TagState state{Vec3{0.6, 1.3, 0.0}, planar_polarization(1.1), "glass"};
  const SensingResult r = sense(state, 10);
  ASSERT_TRUE(r.valid);
  EXPECT_LT(distance(r.position, state.position), 0.01);
  EXPECT_LT(rad2deg(planar_angle_error(r.alpha, 1.1)), 2.0);
  // kt = material + (antenna-0 port + tag device slope were calibrated out)
  EXPECT_NEAR(r.kt, scene_.materials.get("glass").kt, 3e-10);
  EXPECT_EQ(r.lines.size(), 3u);
}

TEST_F(PipelineTest, CalibrationFreeLocalization) {
  // Localization and orientation need NO per-tag / per-material
  // calibration (the paper's headline claim) — only the one-time
  // antenna-port equalization of §IV-C, which is a deployment constant.
  Rng rng(1);
  const TagHardware ref = make_tag_hardware("ref", 101);
  const TagState ref_state{reference_.position, reference_.polarization,
                           "none"};
  prism_->calibrate_reader(
      collect_round(scene_, noiseless_reader(), noiseless_channel(), ref,
                    ref_state, 1, rng),
      reference_);
  // Never-calibrated tag on an unknown material: sense with no tag id.
  const TagState state{Vec3{1.4, 0.8, 0.0}, planar_polarization(0.4), "wood"};
  Rng rng2(11);
  const RoundTrace round = collect_round(
      scene_, noiseless_reader(), noiseless_channel(), tag_, state, 11, rng2);
  const SensingResult r = prism_->sense(round);
  ASSERT_TRUE(r.valid);
  EXPECT_LT(distance(r.position, state.position), 0.08);
  EXPECT_LT(rad2deg(planar_angle_error(r.alpha, 0.4)), 8.0);
}

TEST_F(PipelineTest, MaterialSignatureProduced) {
  calibrate();
  const TagState state{Vec3{1.0, 1.2, 0.0}, planar_polarization(0.0), "metal"};
  const SensingResult r = sense(state, 12);
  ASSERT_TRUE(r.valid);
  ASSERT_FALSE(r.material_signature.empty());
  // Metal's frequency-selective signature should be visible.
  double energy = 0.0;
  for (double s : r.material_signature) energy += s * s;
  EXPECT_GT(energy, 1e-4);
}

TEST_F(PipelineTest, MovingTagRejectedWithReason) {
  calibrate();
  Rng rng(13);
  const TagState start{Vec3{0.8, 1.0, 0.0}, planar_polarization(0.3), "none"};
  const RoundTrace round = collect_round(
      scene_, noiseless_reader(), noiseless_channel(), tag_,
      MobilityModel::linear_motion(start, Vec3{0.04, 0.0, 0.0}), 13, rng);
  const SensingResult r = prism_->sense(round, "t");
  EXPECT_FALSE(r.valid);
  EXPECT_NE(r.reject_reason, RejectReason::kNone);
}

TEST_F(PipelineTest, UncalibratedTagIdIsHarmless) {
  calibrate();
  const TagState state{Vec3{1.0, 1.0, 0.0}, planar_polarization(0.2), "oil"};
  Rng rng(15);
  const RoundTrace round = collect_round(
      scene_, noiseless_reader(), noiseless_channel(), tag_, state, 15, rng);
  const SensingResult r = prism_->sense(round, "never-calibrated");
  EXPECT_TRUE(r.valid);
}

TEST_F(PipelineTest, TagCalibrationRequiresReaderCalibration) {
  Rng rng(16);
  const TagState state{reference_.position, reference_.polarization, "none"};
  const RoundTrace round = collect_round(
      scene_, noiseless_reader(), noiseless_channel(), tag_, state, 16, rng);
  EXPECT_THROW(prism_->calibrate_tag("t", round, reference_), Error);
}

TEST_F(PipelineTest, EmptyTagIdInCalibrateThrows) {
  calibrate();
  Rng rng(17);
  const TagState state{reference_.position, reference_.polarization, "none"};
  const RoundTrace round = collect_round(
      scene_, noiseless_reader(), noiseless_channel(), tag_, state, 17, rng);
  EXPECT_THROW(prism_->calibrate_tag("", round, reference_), InvalidArgument);
}

TEST_F(PipelineTest, AntennaCountMismatchThrows) {
  calibrate();
  RoundTrace round;
  round.n_antennas = 2;
  EXPECT_THROW(prism_->sense(round), InvalidArgument);
}

TEST_F(PipelineTest, ReaderCalibratedFlag) {
  EXPECT_FALSE(prism_->reader_calibrated());
  calibrate();
  EXPECT_TRUE(prism_->reader_calibrated());
  EXPECT_TRUE(prism_->calibrations().has_tag("t"));
}

TEST(PipelineConfig, TooFewAntennasThrows) {
  RfPrismConfig config;
  config.geometry.antenna_positions = {Vec3{0, 0, 1}, Vec3{1, 0, 1}};
  config.geometry.antenna_frames = {make_frame({0, 1, 0}),
                                    make_frame({0, 1, 0})};
  EXPECT_THROW(RfPrism{config}, InvalidArgument);
}

TEST(PipelineConfig, FramePositionMismatchThrows) {
  RfPrismConfig config;
  config.geometry.antenna_positions = {Vec3{0, 0, 1}, Vec3{1, 0, 1},
                                       Vec3{2, 0, 1}};
  config.geometry.antenna_frames = {make_frame({0, 1, 0})};
  EXPECT_THROW(RfPrism{config}, InvalidArgument);
}

TEST(RejectReasonNames, Stable) {
  EXPECT_STREQ(to_string(RejectReason::kNone), "none");
  EXPECT_STREQ(to_string(RejectReason::kMobility), "mobility");
  EXPECT_STREQ(to_string(RejectReason::kTooFewChannels), "too_few_channels");
  EXPECT_STREQ(to_string(RejectReason::kSolverFailure), "solver_failure");
}

}  // namespace
}  // namespace rfp
