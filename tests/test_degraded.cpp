#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "rfp/common/error.hpp"
#include "rfp/core/antenna_health.hpp"
#include "rfp/core/pipeline.hpp"
#include "rfp/exp/testbed.hpp"
#include "rfp/rfsim/faults.hpp"

namespace rfp {
namespace {

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

// ---- AntennaHealthMonitor units ---------------------------------------

TEST(AntennaHealthMonitorTest, StartsHealthy) {
  AntennaHealthMonitor monitor(4);
  for (std::size_t a = 0; a < 4; ++a) EXPECT_TRUE(monitor.healthy(a));
  EXPECT_TRUE(monitor.quarantined().empty());
}

TEST(AntennaHealthMonitorTest, OneBadRoundDoesNotQuarantine) {
  AntennaHealthMonitor monitor(4);
  monitor.observe_port(1, /*fit_rmse=*/0.9, /*read_rate=*/0.0,
                       /*excluded=*/true);
  EXPECT_TRUE(monitor.healthy(1));  // min_rounds protects against bursts
}

TEST(AntennaHealthMonitorTest, QuarantinesPersistentlyBadPort) {
  AntennaHealthMonitor monitor(4);
  for (int i = 0; i < 8; ++i) {
    monitor.observe_port(1, 0.9, 0.1, true);
    monitor.observe_port(0, 0.05, 1.0, false);
  }
  EXPECT_FALSE(monitor.healthy(1));
  EXPECT_TRUE(monitor.healthy(0));
  const auto q = monitor.quarantined();
  ASSERT_EQ(q.size(), 1u);
  EXPECT_EQ(q[0], 1u);
  EXPECT_EQ(monitor.port(1).quarantine_transitions, 1u);
}

TEST(AntennaHealthMonitorTest, ReadmissionRequiresSustainedRecovery) {
  AntennaHealthMonitor monitor(4);
  for (int i = 0; i < 8; ++i) monitor.observe_port(2, 0.9, 0.1, true);
  ASSERT_FALSE(monitor.healthy(2));

  // One clean round is not proof of recovery (hysteresis).
  monitor.observe_port(2, 0.05, 1.0, false);
  EXPECT_FALSE(monitor.healthy(2));

  // A sustained run of clean rounds re-admits the port.
  for (int i = 0; i < 20; ++i) monitor.observe_port(2, 0.05, 1.0, false);
  EXPECT_TRUE(monitor.healthy(2));
  EXPECT_EQ(monitor.port(2).quarantine_transitions, 1u);
}

TEST(AntennaHealthMonitorTest, SilentPortQuarantinedByReadRate) {
  AntennaHealthMonitor monitor(4);
  // A dead port delivers nothing: no RMSE to observe, read rate zero.
  for (int i = 0; i < 8; ++i) monitor.observe_port(3, 0.0, 0.0, true);
  EXPECT_FALSE(monitor.healthy(3));
}

TEST(AntennaHealthMonitorTest, ResetForgetsHistory) {
  AntennaHealthMonitor monitor(4);
  for (int i = 0; i < 8; ++i) monitor.observe_port(1, 0.9, 0.1, true);
  ASSERT_FALSE(monitor.healthy(1));
  monitor.reset();
  EXPECT_TRUE(monitor.healthy(1));
  EXPECT_EQ(monitor.port(1).rounds_observed, 0u);
}

TEST(AntennaHealthMonitorTest, ValidatesConfig) {
  EXPECT_THROW(AntennaHealthMonitor(0), InvalidArgument);
  AntennaHealthConfig config;
  config.rmse_readmit = 0.5;  // not below the quarantine threshold
  EXPECT_THROW(AntennaHealthMonitor(4, config), InvalidArgument);
  config = {};
  config.ewma_alpha = 0.0;
  EXPECT_THROW(AntennaHealthMonitor(4, config), InvalidArgument);
}

// ---- Degraded-mode sensing --------------------------------------------

class DegradedTest : public ::testing::Test {
 protected:
  DegradedTest() {
    TestbedConfig config;
    config.n_antennas = 4;
    bed_ = std::make_unique<Testbed>(config);
  }
  std::unique_ptr<Testbed> bed_;
};

TEST_F(DegradedTest, DeadPortDegradesWithinTwiceBaselineError) {
  FaultProfile profile;
  profile.dead_antennas = {2};
  const FaultInjector injector(profile);

  std::vector<double> baseline_err, degraded_err;
  std::size_t degraded_count = 0;
  const auto positions = paper_grid_positions(bed_->scene().working_region);
  for (std::size_t i = 0; i < 10; ++i) {
    const Vec2 p = positions[i * 2];
    const TagState state = bed_->tag_state(p, 0.4, "glass");
    const RoundTrace round = bed_->collect(state, 100 + i);

    const SensingResult full = bed_->prism().sense(round, bed_->tag_id());
    ASSERT_TRUE(full.valid);
    EXPECT_EQ(full.grade, SensingGrade::kFull);
    baseline_err.push_back(distance(full.position, state.position));

    const SensingResult degraded =
        bed_->prism().sense(injector.apply(round, 100 + i), bed_->tag_id());
    ASSERT_TRUE(degraded.valid);
    if (degraded.grade == SensingGrade::kDegraded) ++degraded_count;
    EXPECT_TRUE(std::find(degraded.excluded_antennas.begin(),
                          degraded.excluded_antennas.end(),
                          2u) != degraded.excluded_antennas.end());
    degraded_err.push_back(distance(degraded.position, state.position));
  }
  EXPECT_EQ(degraded_count, 10u);
  // The acceptance bar: losing one of four ports costs at most 2x the
  // median localization error of the full array.
  EXPECT_LE(median(degraded_err), 2.0 * median(baseline_err) + 1e-6);
}

TEST_F(DegradedTest, ThreeAntennasWithDeadPortRejectsForHealth) {
  Testbed bed;  // default planar rig: 3 antennas, no redundancy
  FaultProfile profile;
  profile.dead_antennas = {1};
  const FaultInjector injector(profile);
  const TagState state = bed.tag_state({0.8, 1.2}, 0.5, "glass");
  const SensingResult result =
      bed.prism().sense(injector.apply(bed.collect(state, 3), 3), bed.tag_id());
  EXPECT_FALSE(result.valid);
  EXPECT_EQ(result.grade, SensingGrade::kRejected);
  EXPECT_EQ(result.reject_reason, RejectReason::kAntennaHealth);
  EXPECT_TRUE(std::find(result.unhealthy_antennas.begin(),
                        result.unhealthy_antennas.end(),
                        1u) != result.unhealthy_antennas.end());
}

TEST_F(DegradedTest, QuarantinedPortExcludedEvenWhenClean) {
  AntennaHealthMonitor monitor(4);
  for (int i = 0; i < 8; ++i) monitor.observe_port(3, 0.9, 0.1, true);
  ASSERT_FALSE(monitor.healthy(3));

  const TagState state = bed_->tag_state({1.0, 1.0}, 0.3, "wood");
  const RoundTrace round = bed_->collect(state, 42);  // port 3 data is fine
  const SensingResult result =
      bed_->prism().sense(round, bed_->tag_id(), &monitor);
  ASSERT_TRUE(result.valid);
  EXPECT_EQ(result.grade, SensingGrade::kDegraded);
  ASSERT_EQ(result.excluded_antennas.size(), 1u);
  EXPECT_EQ(result.excluded_antennas[0], 3u);
  // The exclusion is quarantine-driven, not for cause this round.
  EXPECT_TRUE(result.unhealthy_antennas.empty());
}

TEST_F(DegradedTest, MonitorLearnsDeadPortFromStream) {
  AntennaHealthMonitor monitor(4);
  FaultProfile profile;
  profile.dead_antennas = {1};
  const FaultInjector injector(profile);
  const TagState state = bed_->tag_state({0.9, 1.1}, 0.6, "plastic");

  for (std::uint64_t trial = 0; trial < 8; ++trial) {
    const SensingResult result = bed_->prism().sense(
        injector.apply(bed_->collect(state, trial), trial), bed_->tag_id(),
        &monitor);
    monitor.observe_round(result, /*expected_channels=*/40);
  }
  EXPECT_FALSE(monitor.healthy(1));
  EXPECT_TRUE(monitor.healthy(0));
  EXPECT_TRUE(monitor.healthy(2));
  EXPECT_TRUE(monitor.healthy(3));
}

TEST_F(DegradedTest, FlakyPortStillSensesEachRound) {
  FaultProfile profile;
  profile.flaky_antennas = {0};
  profile.flaky_dropout_prob = 0.6;
  const FaultInjector injector(profile);
  std::size_t valid = 0;
  for (std::uint64_t trial = 0; trial < 6; ++trial) {
    const TagState state = bed_->tag_state({0.9, 1.1}, 0.6, "wood");
    const SensingResult result = bed_->prism().sense(
        injector.apply(bed_->collect(state, trial), trial), bed_->tag_id());
    if (result.valid) ++valid;
  }
  // A flaky (not dead) port must not collapse availability: most rounds
  // still produce a pose, full or degraded.
  EXPECT_GE(valid, 5u);
}

}  // namespace
}  // namespace rfp
