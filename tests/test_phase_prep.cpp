#include "rfp/dsp/phase_prep.hpp"

#include <vector>

#include <gtest/gtest.h>

#include "rfp/common/angles.hpp"
#include "rfp/common/constants.hpp"
#include "rfp/common/error.hpp"
#include "rfp/common/rng.hpp"

namespace rfp {
namespace {

TEST(AggregateDwell, CleanReadsAverage) {
  const std::vector<double> reads{1.00, 1.02, 0.98, 1.01, 0.99};
  const ChannelPhase cp = aggregate_dwell(915e6, reads);
  EXPECT_NEAR(cp.phase, 1.0, 0.01);
  EXPECT_EQ(cp.n_reads, 5u);
}

TEST(AggregateDwell, CorrectsMinorityPiJumps) {
  // 2 of 7 reads offset by pi: majority restores the true value.
  std::vector<double> reads{1.0, 1.0, 1.0, 1.0, 1.0,
                            wrap_to_2pi(1.0 + kPi), wrap_to_2pi(1.0 + kPi)};
  const ChannelPhase cp = aggregate_dwell(915e6, reads);
  EXPECT_NEAR(std::abs(ang_diff(cp.phase, 1.0)), 0.0, 1e-9);
}

TEST(AggregateDwell, MajorityFlippedLandsOnPiOffset) {
  // When most reads carry the pi offset, the dwell reports the offset
  // value (per-dwell majority cannot know better; the fitter's global
  // parity vote resolves it).
  std::vector<double> reads{wrap_to_2pi(1.0 + kPi), wrap_to_2pi(1.0 + kPi),
                            wrap_to_2pi(1.0 + kPi), 1.0};
  const ChannelPhase cp = aggregate_dwell(915e6, reads);
  EXPECT_NEAR(std::abs(ang_diff(cp.phase, 1.0 + kPi)), 0.0, 1e-9);
}

TEST(AggregateDwell, WrapBoundaryCluster) {
  // Reads straddling the 0/2*pi seam must not average to ~pi.
  const std::vector<double> reads{0.05, kTwoPi - 0.05, 0.02, kTwoPi - 0.02};
  const ChannelPhase cp = aggregate_dwell(915e6, reads);
  EXPECT_LT(std::abs(ang_diff(cp.phase, 0.0)), 0.01);
}

TEST(AggregateDwell, NoisyPiJumpMix) {
  Rng rng(81);
  for (int trial = 0; trial < 200; ++trial) {
    const double truth = rng.uniform(0.0, kTwoPi);
    std::vector<double> reads;
    for (int i = 0; i < 24; ++i) {
      double v = truth + rng.gaussian(0.0, 0.05);
      if (rng.bernoulli(0.15)) v += kPi;
      reads.push_back(wrap_to_2pi(v));
    }
    const ChannelPhase cp = aggregate_dwell(915e6, reads);
    ASSERT_LT(std::abs(ang_diff(cp.phase, truth)), 0.1) << "trial " << trial;
  }
}

TEST(AggregateDwell, EmptyThrows) {
  EXPECT_THROW(aggregate_dwell(915e6, std::vector<double>{}), InvalidArgument);
}

TEST(AggregateDwell, BadFrequencyThrows) {
  EXPECT_THROW(aggregate_dwell(0.0, std::vector<double>{1.0}),
               InvalidArgument);
}

}  // namespace
}  // namespace rfp
