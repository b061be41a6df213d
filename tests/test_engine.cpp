/// SensingEngine / sense_batch determinism contract: batch results are
/// byte-identical to the sequential sense() path — including degraded and
/// rejected rounds under fault injection — for any thread count, and the
/// engine-backed StreamingSensor emits the same per-round results as the
/// engine-less one.

#include "rfp/core/engine.hpp"

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "rfp/common/constants.hpp"
#include "rfp/common/error.hpp"
#include "rfp/common/rng.hpp"
#include "rfp/common/workspace.hpp"
#include "rfp/core/streaming.hpp"
#include "rfp/exp/testbed.hpp"
#include "rfp/net/wire.hpp"
#include "rfp/rfsim/faults.hpp"

namespace rfp {
namespace {

/// Exact (bitwise on doubles) equality of everything sensing computes,
/// diagnostics included. No tolerances on purpose: bit-identity across
/// thread counts is the contract.
void expect_identical(const SensingResult& a, const SensingResult& b,
                      const std::string& where) {
  SCOPED_TRACE(where);
  EXPECT_EQ(a.valid, b.valid);
  EXPECT_EQ(a.reject_reason, b.reject_reason);
  EXPECT_EQ(a.grade, b.grade);
  EXPECT_EQ(a.excluded_antennas, b.excluded_antennas);
  EXPECT_EQ(a.unhealthy_antennas, b.unhealthy_antennas);
  EXPECT_EQ(a.position.x, b.position.x);
  EXPECT_EQ(a.position.y, b.position.y);
  EXPECT_EQ(a.position.z, b.position.z);
  EXPECT_EQ(a.position_residual, b.position_residual);
  EXPECT_EQ(a.alpha, b.alpha);
  EXPECT_EQ(a.polarization.x, b.polarization.x);
  EXPECT_EQ(a.polarization.y, b.polarization.y);
  EXPECT_EQ(a.polarization.z, b.polarization.z);
  EXPECT_EQ(a.orientation_residual, b.orientation_residual);
  EXPECT_EQ(a.kt, b.kt);
  EXPECT_EQ(a.bt, b.bt);
  EXPECT_EQ(a.material_signature, b.material_signature);
  ASSERT_EQ(a.lines.size(), b.lines.size());
  for (std::size_t i = 0; i < a.lines.size(); ++i) {
    EXPECT_EQ(a.lines[i].antenna, b.lines[i].antenna);
    EXPECT_EQ(a.lines[i].fit.slope, b.lines[i].fit.slope);
    EXPECT_EQ(a.lines[i].fit.intercept, b.lines[i].fit.intercept);
    EXPECT_EQ(a.lines[i].fit.rmse, b.lines[i].fit.rmse);
    EXPECT_EQ(a.lines[i].fit.n, b.lines[i].fit.n);
    EXPECT_EQ(a.lines[i].channel_inlier, b.lines[i].channel_inlier);
    EXPECT_EQ(a.lines[i].residual, b.lines[i].residual);
  }
}

/// A mixed corpus: clean rounds plus heavily faulted ones, so the batch
/// path is exercised across full, degraded, and rejected outcomes.
std::vector<RoundTrace> make_corpus(const Testbed& bed, std::size_t n_clean,
                                    std::size_t n_faulted) {
  std::vector<RoundTrace> corpus;
  Rng rng(mix_seed(7, 0xC0FF));
  const auto materials = paper_materials();
  const FaultInjector injector(
      FaultProfile::scaled(0.8, mix_seed(7, 0xFA17)));
  for (std::size_t k = 0; k < n_clean + n_faulted; ++k) {
    const Vec2 p{0.3 + 1.4 * rng.uniform(), 0.3 + 1.4 * rng.uniform()};
    const TagState state = bed.tag_state(p, rng.uniform(0.0, kPi),
                                         materials[k % materials.size()]);
    RoundTrace round = bed.collect(state, 4000 + k);
    if (k >= n_clean) round = injector.apply(round, 4000 + k);
    corpus.push_back(std::move(round));
  }
  return corpus;
}

TEST(SensingEngine, ResolvesAtLeastOneThread) {
  SensingEngine engine(0);
  EXPECT_GE(engine.n_threads(), 1u);
  SensingEngine two(2);
  EXPECT_EQ(two.n_threads(), 2u);
}

TEST(SensingEngine, WorkspacePerThreadPlusCaller) {
  // Every thread that runs solve work — each pool worker, and the caller
  // when a single chunk runs inline on it (slot n_threads()) — uses its
  // own SolveWorkspace::for_this_thread().
  SensingEngine engine(3);
  std::vector<const SolveWorkspace*> seen(engine.n_threads() + 1, nullptr);
  const auto record = [&](std::size_t, std::size_t, std::size_t slot) {
    SolveWorkspace& ws = SolveWorkspace::for_this_thread();
    ws.vec(0, 4);
    seen[slot] = &ws;
  };
  engine.pool().parallel_for(64, 1, record);
  engine.pool().parallel_for(1, 1, record);  // one chunk: inline on caller
  const SolveWorkspace* caller = &SolveWorkspace::for_this_thread();
  EXPECT_EQ(seen[engine.n_threads()], caller);
  for (std::size_t a = 0; a < seen.size(); ++a) {
    if (seen[a] == nullptr) continue;
    for (std::size_t b = a + 1; b < seen.size(); ++b) {
      if (seen[b] != nullptr) {
        EXPECT_NE(seen[a], seen[b]);
      }
    }
  }
  // Another caller outside the pool gets a workspace of its own.
  const SolveWorkspace* other = nullptr;
  std::thread([&] { other = &SolveWorkspace::for_this_thread(); }).join();
  EXPECT_NE(other, caller);
}

TEST(SensingEngine, ConcurrentCallersDoNotShareScratch) {
  // Two threads outside the pool (say, two reactors polling streaming
  // sessions) call sense_batch on one engine at once, with singleton and
  // 8-round batches. Each caller must get its own scratch: every result
  // equals sequential sense() byte for byte (and TSan sees no race).
  TestbedConfig config;
  config.n_antennas = 4;
  Testbed bed(config);
  const std::vector<RoundTrace> corpus = make_corpus(bed, 4, 4);
  std::vector<std::vector<std::uint8_t>> expected;
  for (const RoundTrace& round : corpus) {
    expected.push_back(
        net::encode_sense_response(bed.prism().sense(round, bed.tag_id())));
  }

  SensingEngine engine(2);
  constexpr int kIterations = 200;
  std::vector<std::string> failures(2);
  const auto caller = [&](std::size_t id, std::size_t batch_size) {
    const std::span<const RoundTrace> rounds(corpus.data(), batch_size);
    for (int it = 0; it < kIterations && failures[id].empty(); ++it) {
      const std::vector<SensingResult> results =
          bed.prism().sense_batch(rounds, engine, bed.tag_id());
      for (std::size_t k = 0; k < results.size(); ++k) {
        if (net::encode_sense_response(results[k]) != expected[k]) {
          failures[id] = "iteration " + std::to_string(it) + " round " +
                         std::to_string(k) + " differs from sense()";
          break;
        }
      }
    }
  };
  std::thread single(caller, 0, 1);
  std::thread batch(caller, 1, corpus.size());
  single.join();
  batch.join();
  EXPECT_EQ(failures[0], "") << "1-round caller";
  EXPECT_EQ(failures[1], "") << "8-round caller";
}

TEST(SensingEngine, EngineSenseMatchesSequentialSense) {
  Testbed bed;
  const std::vector<RoundTrace> corpus = make_corpus(bed, 3, 0);
  SensingEngine engine(4);
  for (std::size_t k = 0; k < corpus.size(); ++k) {
    const SensingResult sequential = bed.prism().sense(corpus[k], bed.tag_id());
    const SensingResult pooled =
        bed.prism().sense(corpus[k], engine, bed.tag_id());
    expect_identical(pooled, sequential, "round " + std::to_string(k));
  }
}

TEST(SensingEngine, BatchBitIdenticalAcrossThreadCounts) {
  TestbedConfig config;
  config.n_antennas = 4;  // room for the degraded path to act
  Testbed bed(config);
  const std::vector<RoundTrace> corpus = make_corpus(bed, 4, 8);

  std::vector<SensingResult> reference;
  for (const RoundTrace& round : corpus) {
    reference.push_back(bed.prism().sense(round, bed.tag_id()));
  }
  // The faulted corpus must actually exercise more than one grade, or
  // this test is weaker than it claims.
  bool saw_non_full = false;
  for (const SensingResult& r : reference) {
    saw_non_full |= r.grade != SensingGrade::kFull;
  }
  EXPECT_TRUE(saw_non_full);

  for (const std::size_t n_threads : {1u, 2u, 8u}) {
    SensingEngine engine(n_threads);
    // Twice per engine: a cold-workspace pass and a warm-workspace pass
    // must both match (results never depend on workspace history).
    for (int pass = 0; pass < 2; ++pass) {
      const std::vector<SensingResult> batch =
          bed.prism().sense_batch(corpus, engine, bed.tag_id());
      ASSERT_EQ(batch.size(), reference.size());
      for (std::size_t k = 0; k < batch.size(); ++k) {
        expect_identical(batch[k], reference[k],
                         "threads=" + std::to_string(n_threads) + " pass=" +
                             std::to_string(pass) + " round=" +
                             std::to_string(k));
      }
    }
  }
}

TEST(SensingEngine, BatchPerRoundTagIds) {
  Testbed bed;
  const std::vector<RoundTrace> corpus = make_corpus(bed, 3, 0);
  const std::vector<std::string> ids = {bed.tag_id(), "", bed.tag_id()};
  SensingEngine engine(2);
  const std::vector<SensingResult> batch =
      bed.prism().sense_batch(corpus, ids, engine);
  ASSERT_EQ(batch.size(), corpus.size());
  for (std::size_t k = 0; k < batch.size(); ++k) {
    const SensingResult sequential = bed.prism().sense(corpus[k], ids[k]);
    expect_identical(batch[k], sequential, "round " + std::to_string(k));
  }
}

TEST(SensingEngine, BatchRejectsMismatchedTagIds) {
  Testbed bed;
  const std::vector<RoundTrace> corpus = make_corpus(bed, 2, 0);
  const std::vector<std::string> ids = {bed.tag_id()};  // 1 id, 2 rounds
  SensingEngine engine(2);
  EXPECT_THROW((void)bed.prism().sense_batch(corpus, ids, engine),
               InvalidArgument);
}

TEST(SensingEngine, BatchEmptyInputIsEmptyOutput) {
  Testbed bed;
  SensingEngine engine(2);
  EXPECT_TRUE(
      bed.prism().sense_batch(std::span<const RoundTrace>{}, engine).empty());
}

TEST(SensingEngine, StructuralErrorPropagatesFirstInInputOrder) {
  Testbed bed;
  std::vector<RoundTrace> corpus = make_corpus(bed, 3, 0);
  corpus[1].n_antennas += 1;  // structurally wrong: antenna count mismatch
  SensingEngine engine(4);
  EXPECT_THROW((void)bed.prism().sense_batch(corpus, engine, bed.tag_id()),
               InvalidArgument);
}

// ---- Streaming routed through the engine ------------------------------

/// Stream several tags' interleaved faulted reads through a sensor and
/// return everything it emitted.
std::vector<StreamedResult> run_stream(const Testbed& bed,
                                       SensingEngine* engine) {
  StreamingSensor sensor(bed.prism(), {}, engine);
  const FaultInjector injector(
      FaultProfile::scaled(0.6, mix_seed(11, 0xFA17)));
  Rng rng(mix_seed(11, 0x57A6));
  std::vector<StreamedResult> all;
  double clock = 0.0;
  for (int k = 0; k < 6; ++k) {
    for (int tag = 0; tag < 3; ++tag) {
      const Vec2 p{0.4 + 0.3 * tag, 0.5 + 0.1 * k};
      const TagState state = bed.tag_state(p, 0.3 + 0.2 * tag, "plastic");
      const std::uint64_t trial =
          6000 + static_cast<std::uint64_t>(3 * k + tag);
      const RoundTrace round = bed.collect(state, trial);
      auto reads = round_to_reads(round, "tag-" + std::to_string(tag));
      for (auto& read : reads) read.time_s += clock;
      sensor.push(injector.apply_stream(
          std::span<const TagRead>(reads.data(), reads.size()), trial));
    }
    clock += 11.0;
    for (auto& emitted : sensor.poll(clock)) all.push_back(std::move(emitted));
  }
  for (auto& emitted : sensor.poll(clock + 1000.0)) {
    all.push_back(std::move(emitted));
  }
  return all;
}

TEST(SensingEngine, StreamingEmissionsMatchEnginelessSensor) {
  TestbedConfig config;
  config.n_antennas = 4;
  Testbed bed(config);

  const std::vector<StreamedResult> sequential = run_stream(bed, nullptr);
  ASSERT_FALSE(sequential.empty());

  for (const std::size_t n_threads : {1u, 2u, 8u}) {
    SensingEngine engine(n_threads);
    const std::vector<StreamedResult> batched = run_stream(bed, &engine);
    ASSERT_EQ(batched.size(), sequential.size())
        << "threads=" << n_threads;
    for (std::size_t k = 0; k < batched.size(); ++k) {
      EXPECT_EQ(batched[k].tag_id, sequential[k].tag_id);
      EXPECT_EQ(batched[k].completed_at_s, sequential[k].completed_at_s);
      expect_identical(batched[k].result, sequential[k].result,
                       "threads=" + std::to_string(n_threads) + " emission=" +
                           std::to_string(k));
    }
  }
}

}  // namespace
}  // namespace rfp
