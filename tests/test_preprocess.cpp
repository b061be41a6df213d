#include "rfp/core/preprocess.hpp"

#include <gtest/gtest.h>

#include "rfp/common/angles.hpp"
#include "rfp/common/constants.hpp"
#include "rfp/common/error.hpp"
#include "support/core_test_util.hpp"

namespace rfp {
namespace {

using testutil::noiseless_channel;
using testutil::noiseless_reader;

class PreprocessTest : public ::testing::Test {
 protected:
  PreprocessTest()
      : scene_(make_scene_2d(41)),
        tag_(make_tag_hardware("t", 41)),
        state_{Vec3{0.9, 1.2, 0.0}, planar_polarization(0.5), "none"} {}

  Scene scene_;
  TagHardware tag_;
  TagState state_;
};

TEST_F(PreprocessTest, OneTracePerAntennaAllChannels) {
  Rng rng(1);
  const RoundTrace round = collect_round(scene_, noiseless_reader(),
                                         noiseless_channel(), tag_, state_,
                                         10, rng);
  const auto traces = preprocess_round(round);
  ASSERT_EQ(traces.size(), 3u);
  for (const auto& t : traces) {
    EXPECT_EQ(t.frequency_hz.size(), kNumChannels);
    EXPECT_EQ(t.wrapped_phase.size(), kNumChannels);
  }
}

TEST_F(PreprocessTest, FrequenciesSortedAscending) {
  Rng rng(2);
  const RoundTrace round = collect_round(scene_, noiseless_reader(),
                                         noiseless_channel(), tag_, state_,
                                         11, rng);
  for (const auto& t : preprocess_round(round)) {
    for (std::size_t i = 1; i < t.frequency_hz.size(); ++i) {
      ASSERT_GT(t.frequency_hz[i], t.frequency_hz[i - 1]);
    }
  }
}

TEST_F(PreprocessTest, WrappedPhasesMatchChannelModel) {
  Rng rng(3);
  const RoundTrace round = collect_round(scene_, noiseless_reader(),
                                         noiseless_channel(), tag_, state_,
                                         12, rng);
  const ChannelModel model(scene_, noiseless_channel(), 12);
  for (const auto& t : preprocess_round(round)) {
    for (std::size_t i = 0; i < t.frequency_hz.size(); ++i) {
      const double expected = wrap_to_2pi(model.reported_phase(
          t.antenna, state_, tag_, t.frequency_hz[i]));
      ASSERT_NEAR(std::abs(ang_diff(t.wrapped_phase[i], expected)), 0.0, 1e-9);
    }
  }
}

TEST_F(PreprocessTest, PiJumpsRemovedByDwellAggregation) {
  ReaderConfig reader = noiseless_reader();
  reader.pi_jump_prob = 0.15;
  Rng rng(4);
  const RoundTrace round = collect_round(scene_, reader, noiseless_channel(),
                                         tag_, state_, 13, rng);
  const ChannelModel model(scene_, noiseless_channel(), 13);
  for (const auto& t : preprocess_round(round)) {
    for (std::size_t i = 0; i < t.frequency_hz.size(); ++i) {
      const double expected = wrap_to_2pi(model.reported_phase(
          t.antenna, state_, tag_, t.frequency_hz[i]));
      // Each dwell's majority vote restores the base phase.
      ASSERT_NEAR(std::abs(ang_diff(t.wrapped_phase[i], expected)), 0.0, 0.01)
          << "antenna " << t.antenna << " channel " << i;
    }
  }
}

TEST_F(PreprocessTest, EmptyRoundThrows) {
  RoundTrace empty;
  EXPECT_THROW(preprocess_round(empty), InvalidArgument);
}

TEST_F(PreprocessTest, AntennaWithoutDwellsYieldsEmptyTrace) {
  Rng rng(7);
  RoundTrace round = collect_round(scene_, noiseless_reader(),
                                   noiseless_channel(), tag_, state_, 16, rng);
  // Drop all antenna-2 dwells (e.g. port failure).
  std::erase_if(round.dwells,
                [](const Dwell& d) { return d.antenna == 2; });
  const auto traces = preprocess_round(round);
  ASSERT_EQ(traces.size(), 3u);
  EXPECT_TRUE(traces[2].frequency_hz.empty());
  EXPECT_EQ(traces[0].frequency_hz.size(), kNumChannels);
}

TEST_F(PreprocessTest, RevisitedChannelKeepsTheDwellWithMoreReads) {
  // Clean reads, so each dwell aggregates to its own phase.
  const auto dwell = [](std::size_t antenna, double frequency_hz,
                        double phase, std::size_t n_reads) {
    Dwell d;
    d.antenna = antenna;
    d.frequency_hz = frequency_hz;
    d.phases.assign(n_reads, phase);
    d.rssi_dbm.assign(n_reads, -50.0);
    return d;
  };
  // Antenna 0 dwells on 915 MHz (phases 1.0 and 2.0, in the order given)
  // and then once on 903 MHz; antenna 1 dwells once on 915 MHz with more
  // reads than either, which must not leak into antenna 0's channel.
  // Returns antenna 0's 915 MHz phase.
  const auto kept = [&](std::size_t reads_a, std::size_t reads_b,
                        bool a_first) {
    RoundTrace round;
    round.n_antennas = 2;
    Dwell a = dwell(0, 915e6, 1.0, reads_a);
    Dwell b = dwell(0, 915e6, 2.0, reads_b);
    round.dwells.push_back(a_first ? a : b);
    round.dwells.push_back(dwell(1, 915e6, 3.0, 20));
    round.dwells.push_back(a_first ? b : a);
    round.dwells.push_back(dwell(0, 903e6, 0.5, 4));
    const auto traces = preprocess_round(round);
    EXPECT_EQ(traces[1].wrapped_phase.size(), 1u);
    EXPECT_EQ(traces[0].wrapped_phase.size(), 2u);
    EXPECT_NEAR(traces[0].wrapped_phase.front(), 0.5, 1e-9);  // 903 MHz
    return traces[0].wrapped_phase.back();
  };
  // The dwell with more reads wins, in either dwell order.
  EXPECT_NEAR(kept(3, 8, true), 2.0, 1e-9);
  EXPECT_NEAR(kept(3, 8, false), 2.0, 1e-9);
  EXPECT_NEAR(kept(8, 3, true), 1.0, 1e-9);
  EXPECT_NEAR(kept(8, 3, false), 1.0, 1e-9);
  // On a tie the earlier dwell stays.
  EXPECT_NEAR(kept(5, 5, true), 1.0, 1e-9);
  EXPECT_NEAR(kept(5, 5, false), 2.0, 1e-9);
}

}  // namespace
}  // namespace rfp
