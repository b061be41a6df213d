#include "rfp/core/streaming.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "rfp/common/angles.hpp"
#include "rfp/common/error.hpp"
#include "rfp/common/rng.hpp"
#include "rfp/exp/testbed.hpp"

namespace rfp {
namespace {

class StreamingTest : public ::testing::Test {
 protected:
  StreamingTest() : bed_{} {}
  Testbed bed_;
};

TEST_F(StreamingTest, EmitsWhenRoundCompletes) {
  StreamingSensor sensor(bed_.prism());
  const TagState state = bed_.tag_state({0.8, 1.2}, 0.5, "glass");
  const auto reads = round_to_reads(bed_.collect(state, 1), bed_.tag_id());

  // Nothing emitted while the round is partial.
  sensor.push(std::span<const TagRead>(reads.data(), reads.size() / 4));
  EXPECT_TRUE(sensor.poll().empty());
  EXPECT_EQ(sensor.pending_tags(), 1u);

  sensor.push(std::span<const TagRead>(reads.data() + reads.size() / 4,
                                       reads.size() - reads.size() / 4));
  const auto emitted = sensor.poll();
  ASSERT_EQ(emitted.size(), 1u);
  EXPECT_EQ(emitted[0].tag_id, bed_.tag_id());
  ASSERT_TRUE(emitted[0].result.valid);
  EXPECT_EQ(emitted[0].result.grade, SensingGrade::kFull);
  EXPECT_LT(distance(emitted[0].result.position, state.position), 0.25);
  // Buffer cleared after emission.
  EXPECT_EQ(sensor.pending_tags(), 0u);
  EXPECT_EQ(sensor.stats().rounds_emitted, 1u);
  EXPECT_EQ(sensor.stats().rounds_full, 1u);
}

TEST_F(StreamingTest, MatchesBatchPipelineResult) {
  StreamingSensor sensor(bed_.prism());
  const TagState state = bed_.tag_state({1.3, 0.7}, 1.0, "wood");
  const RoundTrace round = bed_.collect(state, 2);
  sensor.push(round_to_reads(round, bed_.tag_id()));
  const auto emitted = sensor.poll();
  ASSERT_EQ(emitted.size(), 1u);

  const SensingResult direct = bed_.prism().sense(round, bed_.tag_id());
  ASSERT_EQ(emitted[0].result.valid, direct.valid);
  EXPECT_NEAR(distance(emitted[0].result.position, direct.position), 0.0,
              1e-9);
  EXPECT_NEAR(emitted[0].result.alpha, direct.alpha, 1e-9);
}

TEST_F(StreamingTest, InterleavedTagsSeparated) {
  StreamingSensor sensor(bed_.prism());
  const TagState s1 = bed_.tag_state({0.5, 0.6}, 0.2, "water");
  const TagState s2 = bed_.tag_state({1.5, 1.5}, 1.2, "metal");
  const auto r1 = round_to_reads(bed_.collect(s1, 3), "tag-A");
  const auto r2 = round_to_reads(bed_.collect(s2, 4), "tag-B");

  // Interleave the two streams read-by-read.
  std::vector<TagRead> mixed;
  for (std::size_t i = 0; i < std::max(r1.size(), r2.size()); ++i) {
    if (i < r1.size()) mixed.push_back(r1[i]);
    if (i < r2.size()) mixed.push_back(r2[i]);
  }
  sensor.push(mixed);
  auto emitted = sensor.poll();
  ASSERT_EQ(emitted.size(), 2u);
  std::sort(emitted.begin(), emitted.end(),
            [](const auto& a, const auto& b) { return a.tag_id < b.tag_id; });
  ASSERT_TRUE(emitted[0].result.valid);
  ASSERT_TRUE(emitted[1].result.valid);
  EXPECT_LT(distance(emitted[0].result.position, s1.position), 0.3);
  EXPECT_LT(distance(emitted[1].result.position, s2.position), 0.3);
}

TEST_F(StreamingTest, StaleTagDropped) {
  StreamingConfig config;
  config.tag_timeout_s = 5.0;
  StreamingSensor sensor(bed_.prism(), config);

  // A few reads of a tag that then disappears.
  TagRead read;
  read.tag_id = "ghost";
  read.antenna = 0;
  read.channel = 0;
  read.frequency_hz = 903e6;
  read.time_s = 0.0;
  read.phase = 1.0;
  read.rssi_dbm = -60.0;
  sensor.push(read);
  EXPECT_EQ(sensor.pending_tags(), 1u);

  // Another tag keeps reading far later: the ghost ages out.
  read.tag_id = "alive";
  read.time_s = 100.0;
  sensor.push(read);
  sensor.poll();
  EXPECT_EQ(sensor.pending_tags(), 1u);  // only "alive" remains
  EXPECT_EQ(sensor.stats().tags_timed_out, 1u);
}

TEST_F(StreamingTest, InjectedClockExpiresDepartedTags) {
  StreamingConfig config;
  config.tag_timeout_s = 5.0;
  StreamingSensor sensor(bed_.prism(), config);

  TagRead read;
  read.tag_id = "departed";
  read.antenna = 0;
  read.channel = 0;
  read.frequency_hz = 903e6;
  read.time_s = 10.0;
  read.phase = 1.0;
  sensor.push(read);

  // The stream fully stalls: no more reads ever arrive. With the buffered
  // high-water clock alone, the tag would be pending forever.
  EXPECT_TRUE(sensor.poll().empty());
  EXPECT_EQ(sensor.pending_tags(), 1u);

  EXPECT_TRUE(sensor.poll(14.0).empty());  // not yet timed out
  EXPECT_EQ(sensor.pending_tags(), 1u);
  EXPECT_TRUE(sensor.poll(16.0).empty());  // 10 + 5 < 16: departed
  EXPECT_EQ(sensor.pending_tags(), 0u);
  EXPECT_EQ(sensor.stats().tags_timed_out, 1u);
}

TEST_F(StreamingTest, DuplicateReadsDropped) {
  StreamingSensor sensor(bed_.prism());
  TagRead read;
  read.tag_id = "t";
  read.antenna = 1;
  read.channel = 3;
  read.frequency_hz = 905e6;
  read.time_s = 1.0;
  read.phase = 0.5;
  sensor.push(read);
  sensor.push(read);  // exact LLRP-style redelivery
  sensor.push(read);
  EXPECT_EQ(sensor.buffered_reads(), 1u);
  EXPECT_EQ(sensor.stats().reads_accepted, 1u);
  EXPECT_EQ(sensor.stats().duplicates_dropped, 2u);

  // Same timestamp but a different phase is a genuine new read.
  read.phase = 0.7;
  sensor.push(read);
  EXPECT_EQ(sensor.buffered_reads(), 2u);
}

TEST_F(StreamingTest, OutOfOrderTimestampsTolerated) {
  StreamingSensor sensor(bed_.prism());
  const TagState state = bed_.tag_state({1.1, 0.9}, 0.8, "plastic");
  const RoundTrace round = bed_.collect(state, 5);
  auto reads = round_to_reads(round, bed_.tag_id());
  std::reverse(reads.begin(), reads.end());
  sensor.push(reads);
  const auto emitted = sensor.poll();
  ASSERT_EQ(emitted.size(), 1u);
  ASSERT_TRUE(emitted[0].result.valid);
  EXPECT_LT(distance(emitted[0].result.position, state.position), 0.3);
  EXPECT_EQ(sensor.stats().stale_dropped, 0u);
}

TEST_F(StreamingTest, EmissionsSortedByCompletionTime) {
  StreamingSensor sensor(bed_.prism());
  const TagState state = bed_.tag_state({0.9, 1.0}, 0.4, "wood");

  // "late" completes after "early" but is pushed first; and two tags that
  // complete at the same instant come out in id order.
  auto early = round_to_reads(bed_.collect(state, 6), "b-early");
  auto late = round_to_reads(bed_.collect(state, 7), "a-late");
  auto tied = round_to_reads(bed_.collect(state, 6), "c-tied");
  for (auto& r : late) r.time_s += 5.0;
  std::vector<TagRead> all;
  all.insert(all.end(), late.begin(), late.end());
  all.insert(all.end(), early.begin(), early.end());
  all.insert(all.end(), tied.begin(), tied.end());
  sensor.push(all);

  const auto emitted = sensor.poll();
  ASSERT_EQ(emitted.size(), 3u);
  EXPECT_EQ(emitted[0].tag_id, "b-early");
  EXPECT_EQ(emitted[1].tag_id, "c-tied");
  EXPECT_EQ(emitted[2].tag_id, "a-late");
  EXPECT_LE(emitted[0].completed_at_s, emitted[1].completed_at_s);
  EXPECT_LE(emitted[1].completed_at_s, emitted[2].completed_at_s);
}

TEST_F(StreamingTest, PartialRoundEmittedWhenPortIsSilent) {
  TestbedConfig bed_config;
  bed_config.n_antennas = 4;
  Testbed bed(bed_config);
  StreamingSensor sensor(bed.prism());
  const TagState state = bed.tag_state({0.8, 1.2}, 0.5, "glass");
  const RoundTrace round = bed.collect(state, 8);
  auto reads = round_to_reads(round, bed.tag_id());
  // Port 3 delivers nothing at all (dead cable).
  std::erase_if(reads, [](const TagRead& r) { return r.antenna == 3; });
  sensor.push(reads);

  // The healthy subset is complete but the sensor still waits for port 3.
  EXPECT_TRUE(sensor.poll().empty());

  // Once the subset has waited out the round-age window, a degraded round
  // is emitted rather than blocking forever on the dead port.
  double last = 0.0;
  for (const TagRead& r : reads) last = std::max(last, r.time_s);
  const auto emitted = sensor.poll(last + 31.0);
  ASSERT_EQ(emitted.size(), 1u);
  ASSERT_TRUE(emitted[0].result.valid);
  EXPECT_EQ(emitted[0].result.grade, SensingGrade::kDegraded);
  ASSERT_EQ(emitted[0].result.excluded_antennas.size(), 1u);
  EXPECT_EQ(emitted[0].result.excluded_antennas[0], 3u);
  EXPECT_LT(distance(emitted[0].result.position, state.position), 0.35);
  EXPECT_EQ(sensor.stats().rounds_degraded, 1u);
}

TEST_F(StreamingTest, TimedOutTagWithCompleteAntennaFlushesReject) {
  // 3-antenna rig + dead port 1: the round can never complete, so the
  // timeout path must flush it as an explicit antenna-health reject
  // instead of silently dropping the tag.
  StreamingSensor sensor(bed_.prism());
  const TagState state = bed_.tag_state({0.8, 1.2}, 0.5, "glass");
  auto reads = round_to_reads(bed_.collect(state, 11), bed_.tag_id());
  std::erase_if(reads, [](const TagRead& r) { return r.antenna == 1; });
  sensor.push(reads);
  EXPECT_TRUE(sensor.poll().empty());

  double last = 0.0;
  for (const TagRead& r : reads) last = std::max(last, r.time_s);
  const auto emitted = sensor.poll(last + 121.0);
  ASSERT_EQ(emitted.size(), 1u);
  EXPECT_FALSE(emitted[0].result.valid);
  EXPECT_EQ(emitted[0].result.reject_reason, RejectReason::kAntennaHealth);
  EXPECT_EQ(sensor.stats().tags_timed_out, 1u);
  EXPECT_EQ(sensor.stats().rejected_antenna_health, 1u);
  EXPECT_LT(sensor.health().port(1).ewma_read_rate, 0.5);
  EXPECT_EQ(sensor.pending_tags(), 0u);
}

TEST_F(StreamingTest, BufferedReadsCounted) {
  StreamingSensor sensor(bed_.prism());
  TagRead read;
  read.tag_id = "t";
  read.antenna = 1;
  read.channel = 3;
  read.frequency_hz = 905e6;
  read.phase = 0.5;
  sensor.push(read);
  read.time_s = 0.001;  // distinct read, not a redelivery
  sensor.push(read);
  EXPECT_EQ(sensor.buffered_reads(), 2u);
  sensor.clear();
  EXPECT_EQ(sensor.buffered_reads(), 0u);
  EXPECT_EQ(sensor.pending_tags(), 0u);
}

TEST_F(StreamingTest, NeverCompletingTagStaysWithinPoolBudget) {
  StreamingConfig config;
  config.max_reads_per_pool = 8;
  StreamingSensor sensor(bed_.prism(), config);

  // A chattering tag read forever on one channel, never enough channels
  // to complete a round.
  TagRead read;
  read.tag_id = "chatter";
  read.antenna = 0;
  read.channel = 0;
  read.frequency_hz = 903e6;
  read.phase = 0.25;
  for (int i = 0; i < 10000; ++i) {
    read.time_s = 1e-3 * i;
    read.phase = wrap_to_2pi(read.phase + 0.01);
    sensor.push(read);
  }
  EXPECT_LE(sensor.buffered_reads(), 8u);
  EXPECT_EQ(sensor.stats().pool_cap_evictions, 10000u - 8u);
}

TEST_F(StreamingTest, ClearResetsStatsAndState) {
  StreamingSensor sensor(bed_.prism());
  const TagState state = bed_.tag_state({0.8, 1.2}, 0.5, "glass");
  sensor.push(round_to_reads(bed_.collect(state, 9), bed_.tag_id()));
  ASSERT_EQ(sensor.poll().size(), 1u);
  ASSERT_GT(sensor.stats().reads_accepted, 0u);
  ASSERT_GT(sensor.stats().rounds_emitted, 0u);

  sensor.clear();
  EXPECT_EQ(sensor.stats().reads_accepted, 0u);
  EXPECT_EQ(sensor.stats().rounds_emitted, 0u);
  EXPECT_EQ(sensor.pending_tags(), 0u);
  for (std::size_t a = 0; a < sensor.health().n_antennas(); ++a) {
    EXPECT_EQ(sensor.health().port(a).rounds_observed, 0u);
  }

  // The sensor is fully reusable after clear(), including its clock.
  sensor.push(round_to_reads(bed_.collect(state, 10), bed_.tag_id()));
  EXPECT_EQ(sensor.poll().size(), 1u);
}

TEST_F(StreamingTest, RejectsMalformedReads) {
  StreamingSensor sensor(bed_.prism());
  TagRead read;
  read.tag_id = "";
  read.frequency_hz = 905e6;
  EXPECT_THROW(sensor.push(read), InvalidArgument);
  read.tag_id = "t";
  read.antenna = 99;
  EXPECT_THROW(sensor.push(read), InvalidArgument);
  read.antenna = 0;
  read.frequency_hz = 0.0;
  EXPECT_THROW(sensor.push(read), InvalidArgument);
  read.frequency_hz = 905e6;
  read.time_s = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(sensor.push(read), InvalidArgument);
}

TEST_F(StreamingTest, BadConfigThrows) {
  StreamingConfig config;
  config.min_channels_per_antenna = 2;
  EXPECT_THROW(StreamingSensor(bed_.prism(), config), InvalidArgument);
  config = {};
  config.max_pending_tags = 0;
  EXPECT_THROW(StreamingSensor(bed_.prism(), config), InvalidArgument);
}

TEST_F(StreamingTest, AdversarialFuzzStreamStaysBounded) {
  StreamingConfig config;
  config.max_pending_tags = 64;
  config.max_channels_per_antenna = 8;
  config.max_reads_per_pool = 8;
  StreamingSensor sensor(bed_.prism(), config);
  const std::size_t n_antennas = bed_.prism().config().geometry.n_antennas();
  const std::size_t bound = config.max_pending_tags * n_antennas *
                            config.max_channels_per_antenna *
                            config.max_reads_per_pool;

  // One million hostile reads: churning tag population, garbage channel
  // indices, timestamps jumping forward and backward, duplicates. Memory
  // must stay within the configured bound and poll() must never throw.
  Rng rng(0xF022);
  double t = 0.0;
  constexpr std::size_t kReads = 1'000'000;
  for (std::size_t i = 0; i < kReads; ++i) {
    TagRead read;
    // Mostly a stable population (their pools fill up and evict), plus a
    // trickle of never-repeating garbage ids (tag churn).
    read.tag_id = rng.bernoulli(0.9)
                      ? "fuzz-" + std::to_string(rng.uniform_index(32))
                      : "ghost-" + std::to_string(i);
    read.antenna = rng.uniform_index(n_antennas);
    read.channel = rng.uniform_index(100000);
    read.frequency_hz = 902e6 + 1e6 * rng.uniform();
    t += rng.uniform() < 0.1 ? -rng.uniform() : 1e-3 * rng.uniform();
    read.time_s = t;
    read.phase = rng.uniform() * 6.28;
    read.rssi_dbm = -80.0 + 40.0 * rng.uniform();
    sensor.push(read);
    if (i % 100000 == 0) {
      EXPECT_NO_THROW(sensor.poll());
    }
  }
  EXPECT_NO_THROW(sensor.poll());
  EXPECT_LE(sensor.buffered_reads(), bound);
  EXPECT_LE(sensor.pending_tags(), config.max_pending_tags);
  const StreamingStats& stats = sensor.stats();
  EXPECT_GT(stats.tag_evictions, 0u);
  EXPECT_GT(stats.channel_evictions, 0u);
  // Every read was either accepted or accounted to a drop cause.
  EXPECT_EQ(stats.reads_accepted + stats.duplicates_dropped +
                stats.stale_dropped,
            kReads);
}

}  // namespace
}  // namespace rfp
