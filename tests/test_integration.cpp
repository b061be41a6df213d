/// Integration and property tests: full simulate -> sense cycles over the
/// shared testbed, parameterized across the paper's experimental factors.

#include <gtest/gtest.h>

#include "rfp/common/angles.hpp"
#include "rfp/common/constants.hpp"
#include "rfp/exp/testbed.hpp"

namespace rfp {
namespace {

const Testbed& shared_bed() {
  static const Testbed bed{};
  return bed;
}

// ---- Property sweep: localization accuracy holds for every material ----

class MaterialSweep : public ::testing::TestWithParam<std::string> {};

TEST_P(MaterialSweep, LocalizationUnaffectedByMaterial) {
  // The paper's core claim (Fig. 8 right): the material changes kt/bt,
  // never the inferred position, because kt is solved, not assumed.
  const Testbed& bed = shared_bed();
  const std::string material = GetParam();
  double worst = 0.0;
  int n = 0;
  std::uint64_t trial = 1000;
  for (Vec2 p : {Vec2{0.5, 0.6}, Vec2{1.0, 1.2}, Vec2{1.5, 1.6}}) {
    const SensingResult r =
        bed.sense(bed.tag_state(p, 0.4, material), trial++);
    if (!r.valid) continue;
    worst = std::max(worst, distance(r.position, Vec3{p, 0.0}));
    ++n;
  }
  ASSERT_GE(n, 2) << material;
  EXPECT_LT(worst, 0.30) << material;
}

TEST_P(MaterialSweep, KtEstimateTracksMaterial) {
  const Testbed& bed = shared_bed();
  const std::string material = GetParam();
  const Material& m = bed.scene().materials.get(material);
  double kt_sum = 0.0;
  int n = 0;
  std::uint64_t trial = 2000;
  for (int rep = 0; rep < 6; ++rep) {
    const Vec2 p{0.4 + 0.2 * rep, 1.0};
    const SensingResult r =
        bed.sense(bed.tag_state(p, 0.0, material), trial++);
    if (!r.valid) continue;
    kt_sum += r.kt;
    ++n;
  }
  ASSERT_GE(n, 4) << material;
  // kt estimate within a few rad/GHz of the nominal material value.
  EXPECT_NEAR(kt_sum / n * 1e9, m.kt * 1e9, 4.0) << material;
}

INSTANTIATE_TEST_SUITE_P(AllMaterials, MaterialSweep,
                         ::testing::ValuesIn(paper_materials()),
                         [](const auto& info) { return info.param; });

// ---- Property sweep: orientation recovered across the paper's angles ----

class AngleSweep : public ::testing::TestWithParam<int> {};

TEST_P(AngleSweep, OrientationRecoveredWithinTolerance) {
  const Testbed& bed = shared_bed();
  const double alpha = deg2rad(static_cast<double>(GetParam()));
  double err_sum = 0.0;
  int n = 0;
  std::uint64_t trial = 3000 + static_cast<std::uint64_t>(GetParam()) * 17;
  for (Vec2 p : {Vec2{0.6, 0.8}, Vec2{1.2, 1.0}, Vec2{1.5, 1.5},
                 Vec2{0.8, 1.6}}) {
    const SensingResult r =
        bed.sense(bed.tag_state(p, alpha, "plastic"), trial++);
    if (!r.valid) continue;
    err_sum += rad2deg(planar_angle_error(r.alpha, alpha));
    ++n;
  }
  ASSERT_GE(n, 3);
  EXPECT_LT(err_sum / n, 25.0) << "alpha=" << GetParam();
}

INSTANTIATE_TEST_SUITE_P(PaperAngles, AngleSweep,
                         ::testing::Values(0, 30, 60, 90, 120, 150));

// ---- Invariants of the sensing result ----

TEST(Integration, ValidResultsAreWellFormed) {
  const Testbed& bed = shared_bed();
  std::uint64_t trial = 4000;
  for (int rep = 0; rep < 10; ++rep) {
    const Vec2 p{0.3 + 0.15 * rep, 0.4 + 0.14 * rep};
    const SensingResult r = bed.sense(
        bed.tag_state(p, 0.1 * rep, paper_materials()[rep % 8]), trial++);
    if (!r.valid) continue;
    // Position inside (a margin around) the region.
    EXPECT_GT(r.position.x, -0.3);
    EXPECT_LT(r.position.x, 2.3);
    // Alpha normalized to [0, pi).
    EXPECT_GE(r.alpha, 0.0);
    EXPECT_LT(r.alpha, kPi);
    // Polarization is unit and planar in 2D mode.
    EXPECT_NEAR(r.polarization.norm(), 1.0, 1e-9);
    EXPECT_NEAR(r.polarization.z, 0.0, 1e-9);
    // bt wrapped into a sane range by the tag calibration.
    EXPECT_GE(r.bt, -kPi);
    EXPECT_LT(r.bt, kTwoPi);
    // Signature has the channel count and finite entries.
    ASSERT_EQ(r.material_signature.size(), kNumChannels);
    for (double s : r.material_signature) ASSERT_TRUE(std::isfinite(s));
    // Diagnostics present.
    EXPECT_EQ(r.lines.size(), 3u);
    EXPECT_EQ(r.reject_reason, RejectReason::kNone);
  }
}

TEST(Integration, RepeatedTrialsGiveIndependentNoise) {
  const Testbed& bed = shared_bed();
  const TagState state = bed.tag_state({1.1, 0.9}, 0.7, "glass");
  const SensingResult a = bed.sense(state, 5001);
  const SensingResult b = bed.sense(state, 5002);
  ASSERT_TRUE(a.valid && b.valid);
  EXPECT_NE(a.position, b.position);
  // But both close to truth.
  EXPECT_LT(distance(a.position, state.position), 0.3);
  EXPECT_LT(distance(b.position, state.position), 0.3);
}

TEST(Integration, MultipathSuppressionBeatsNoSuppression) {
  // Paper Fig. 12's central comparison, as a property: with clutter and
  // corrupted channels, enabling channel selection must reduce the mean
  // localization error.
  TestbedConfig config;
  config.multipath_environment = true;
  const Testbed bed(config);

  TestbedConfig raw_config = config;
  Testbed raw_bed(raw_config);
  // Rebuild a pipeline without suppression over the same deployment, the
  // way Fig. 12's "Multipath" bar does: the detector stays on with a looser
  // fit-RMSE gate, so only the channel selection is removed.
  RfPrismConfig pcfg = bed.prism().config();
  pcfg.fitting.multipath_suppression = false;
  pcfg.error_detector.max_fit_rmse = 0.20;
  const RfPrism plain = bed.make_pipeline_variant(std::move(pcfg));

  double err_suppressed = 0.0, err_plain = 0.0;
  int n = 0;
  std::uint64_t trial = 6000;
  for (int rep = 0; rep < 12; ++rep) {
    const Vec2 p{0.4 + 0.1 * rep, 1.5 - 0.08 * rep};
    const TagState state = bed.tag_state(p, 0.3, "none");
    const RoundTrace round = bed.collect(state, trial++);
    const SensingResult with = bed.prism().sense(round, bed.tag_id());
    const SensingResult without = plain.sense(round, bed.tag_id());
    if (!with.valid || !without.valid) continue;
    err_suppressed += distance(with.position, state.position);
    err_plain += distance(without.position, state.position);
    ++n;
  }
  ASSERT_GE(n, 8);
  EXPECT_LT(err_suppressed, err_plain);
}

TEST(Integration, SensingIn3dMode) {
  TestbedConfig config;
  config.mode_3d = true;
  const Testbed bed(config);
  const TagState state{Vec3{1.2, 1.0, 0.5}, planar_polarization(0.6),
                       "glass"};
  const SensingResult r = bed.prism().sense(bed.collect(state, 7001),
                                            bed.tag_id());
  ASSERT_TRUE(r.valid);
  EXPECT_LT(distance(r.position, state.position), 0.30);
}

}  // namespace
}  // namespace rfp
