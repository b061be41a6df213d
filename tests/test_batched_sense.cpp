/// Tag-batched Stage-A contract (DESIGN.md "Solver acceleration"): a
/// sense_batch over B rounds ranks all tags against one shared cached
/// distance-table pass (solve_position_batch), and the results must be
/// byte-identical to sensing each round sequentially — across thread
/// counts, faulted corpora spanning full/degraded/rejected grades,
/// warm-hint mixes, per-round tag ids, and singleton batches. Also covers
/// the hoisted one-acquire-per-batch cache behaviour.

#include "rfp/core/pipeline.hpp"

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "rfp/common/angles.hpp"
#include "rfp/common/constants.hpp"
#include "rfp/common/error.hpp"
#include "rfp/common/rng.hpp"
#include "rfp/core/disentangle.hpp"
#include "rfp/core/engine.hpp"
#include "rfp/core/grid_cache.hpp"
#include "rfp/exp/testbed.hpp"
#include "rfp/geom/frame.hpp"
#include "rfp/rfsim/faults.hpp"
#include "rfp/rfsim/scene.hpp"
#include "support/core_test_util.hpp"

namespace rfp {
namespace {

using testutil::exact_geometry;

/// Exact (bitwise on doubles) equality of everything sensing computes.
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
}

/// Clean + heavily faulted rounds, so batches mix full, degraded, and
/// rejected outcomes (the regime where batched bookkeeping can drift).
std::vector<RoundTrace> make_corpus(const Testbed& bed, std::size_t n_clean,
                                    std::size_t n_faulted,
                                    std::uint64_t salt = 0xBA7C) {
  std::vector<RoundTrace> corpus;
  Rng rng(mix_seed(13, salt));
  const auto materials = paper_materials();
  const FaultInjector injector(FaultProfile::scaled(0.8, mix_seed(13, salt)));
  for (std::size_t k = 0; k < n_clean + n_faulted; ++k) {
    const Vec2 p{0.3 + 1.4 * rng.uniform(), 0.3 + 1.4 * rng.uniform()};
    const TagState state = bed.tag_state(p, rng.uniform(0.0, kPi),
                                         materials[k % materials.size()]);
    RoundTrace round = bed.collect(state, 7100 + k);
    if (k >= n_clean) round = injector.apply(round, 7100 + k);
    corpus.push_back(std::move(round));
  }
  return corpus;
}

/// Exact AntennaLines from the physical model (same helper as the
/// disentangle tests).
std::vector<AntennaLine> exact_lines(const DeploymentGeometry& geometry,
                                     Vec3 position, Vec3 polarization,
                                     double kt, double bt) {
  std::vector<AntennaLine> lines;
  for (std::size_t i = 0; i < geometry.n_antennas(); ++i) {
    AntennaLine line;
    line.antenna = i;
    const double d = distance(geometry.antenna_positions[i], position);
    line.fit.slope = kSlopePerMeter * d + kt;
    line.fit.intercept = wrap_to_2pi(
        polarization_phase_toward(geometry.antenna_frames[i],
                                  geometry.antenna_positions[i], position,
                                  polarization) +
        bt);
    line.fit.n = kNumChannels;
    line.n_channels = kNumChannels;
    lines.push_back(line);
  }
  return lines;
}

// ---------------------------------------------------------------------------
// sense_batch: batched Stage A byte-identical to sequential sensing
// ---------------------------------------------------------------------------

TEST(BatchedSense, MatchesSequentialAcrossThreadsAndKernels) {
  TestbedConfig config;
  config.n_antennas = 4;
  Testbed bed(config);
  const std::vector<RoundTrace> corpus = make_corpus(bed, 4, 8);
  const RfPrism& prism = bed.prism();

  // The kernels run at whatever level dispatch picked; the forced-scalar
  // CI lanes re-run this suite on the scalar kernels.
  bool saw_degraded = false, saw_rejected = false;
  std::vector<SensingResult> reference;
  for (const RoundTrace& round : corpus) {
    reference.push_back(prism.sense(round, bed.tag_id()));
  }
  for (const SensingResult& r : reference) {
    saw_degraded |= r.grade == SensingGrade::kDegraded;
    saw_rejected |= r.grade == SensingGrade::kRejected;
  }
  for (std::size_t threads : {1u, 2u, 8u}) {
    SensingEngine engine(threads);
    const std::vector<SensingResult> batch =
        prism.sense_batch(corpus, engine, bed.tag_id());
    ASSERT_EQ(batch.size(), reference.size());
    for (std::size_t k = 0; k < batch.size(); ++k) {
      expect_identical(batch[k], reference[k],
                       "threads=" + std::to_string(threads) + " round " +
                           std::to_string(k));
    }
  }
  EXPECT_TRUE(saw_degraded) << "corpus never hit the degraded path; weak test";
  EXPECT_TRUE(saw_rejected) << "corpus never hit the rejected path; weak test";
}

TEST(BatchedSense, SingletonBatchMatchesSingleSense) {
  TestbedConfig config;
  config.n_antennas = 4;
  Testbed bed(config);
  const std::vector<RoundTrace> corpus = make_corpus(bed, 1, 0, 0x001);
  const RfPrism& prism = bed.prism();
  SensingEngine engine(2);
  const auto batch = prism.sense_batch(corpus, engine, bed.tag_id());
  ASSERT_EQ(batch.size(), 1u);
  expect_identical(batch[0], prism.sense(corpus[0], bed.tag_id()),
                   "singleton");
}

TEST(BatchedSense, DegenerateGridFailsEveryRoundLikeSense) {
  // A 1-wide grid has no distance table: sense() reports a per-round
  // solver failure, and sense_batch must do the same instead of throwing.
  TestbedConfig config;
  config.n_antennas = 4;
  Testbed bed(config);
  const std::vector<RoundTrace> corpus = make_corpus(bed, 2, 2, 0xDE6);
  RfPrismConfig degenerate = bed.prism().config();
  degenerate.disentangle.grid_nx = 1;
  const RfPrism prism = bed.make_pipeline_variant(std::move(degenerate));
  for (std::size_t threads : {1u, 4u}) {
    SensingEngine engine(threads);
    const auto batch = prism.sense_batch(corpus, engine, bed.tag_id());
    ASSERT_EQ(batch.size(), corpus.size());
    for (std::size_t k = 0; k < corpus.size(); ++k) {
      const SensingResult single = prism.sense(corpus[k], bed.tag_id());
      EXPECT_FALSE(single.valid);
      expect_identical(batch[k], single,
                       "threads=" + std::to_string(threads) + " round " +
                           std::to_string(k));
    }
  }
}

TEST(BatchedSense, WarmHintMixMatchesPerRoundWarmSense) {
  // Some rounds hinted (well and badly), some cold, in one batch: each
  // result must equal the per-round sense_warm/sense outcome exactly.
  TestbedConfig config;
  config.n_antennas = 4;
  Testbed bed(config);
  const std::vector<RoundTrace> corpus = make_corpus(bed, 5, 3, 0x3A3);
  const RfPrism& prism = bed.prism();

  // First pass: learn positions to hint with.
  std::vector<SensingResult> cold;
  for (const RoundTrace& round : corpus) {
    cold.push_back(prism.sense(round, bed.tag_id()));
  }
  std::vector<std::optional<Vec3>> hints(corpus.size());
  for (std::size_t k = 0; k < corpus.size(); ++k) {
    if (k % 3 == 0 && cold[k].valid) {
      hints[k] = cold[k].position;  // good hint → warm path
    } else if (k % 3 == 1) {
      hints[k] = Vec3{-50.0, -50.0, 0.0};  // hopeless hint → cold fallback
    }  // else: no hint
  }
  std::vector<std::string> tag_ids(corpus.size(), bed.tag_id());

  std::vector<SensingResult> reference;
  for (std::size_t k = 0; k < corpus.size(); ++k) {
    if (hints[k].has_value()) {
      reference.push_back(
          prism.sense_warm(corpus[k], bed.tag_id(), *hints[k]));
    } else {
      reference.push_back(prism.sense(corpus[k], bed.tag_id()));
    }
  }
  for (std::size_t threads : {1u, 4u}) {
    SensingEngine engine(threads);
    const auto batch =
        prism.sense_batch(corpus, tag_ids, engine, nullptr, hints);
    for (std::size_t k = 0; k < corpus.size(); ++k) {
      expect_identical(batch[k], reference[k],
                       "threads=" + std::to_string(threads) + " round " +
                           std::to_string(k));
    }
  }
}

TEST(BatchedSense, PerRoundTagIdsApplyCalibrationsIndividually) {
  TestbedConfig config;
  config.n_antennas = 4;
  Testbed bed(config);
  const std::vector<RoundTrace> corpus = make_corpus(bed, 4, 0, 0x7A6);
  const RfPrism& prism = bed.prism();
  // Alternate calibrated / uncalibrated ids: kt/bt/material compensation
  // differs between them, so cross-tag mixups would show.
  std::vector<std::string> tag_ids;
  for (std::size_t k = 0; k < corpus.size(); ++k) {
    tag_ids.push_back(k % 2 == 0 ? bed.tag_id() : "uncalibrated-tag");
  }
  SensingEngine engine(2);
  const auto batch = prism.sense_batch(corpus, tag_ids, engine);
  for (std::size_t k = 0; k < corpus.size(); ++k) {
    expect_identical(batch[k], prism.sense(corpus[k], tag_ids[k]),
                     "round " + std::to_string(k));
  }
}

TEST(BatchedSense, BatchAcquiresTableOnce) {
  // The hoist: one geometry-cache lookup per (deployment, batch), not one
  // per round.
  TestbedConfig config;
  config.n_antennas = 4;
  Testbed bed(config);
  const std::vector<RoundTrace> corpus = make_corpus(bed, 6, 0, 0x0CE);
  const RfPrism& prism = bed.prism();
  SensingEngine engine(2);
  (void)prism.sense_batch(corpus, engine, bed.tag_id());
  const GridGeometryCache::Stats after = engine.geometry_cache().stats();
  EXPECT_EQ(after.hits + after.misses, 1u)
      << "batched path must acquire the shared table exactly once";
  (void)prism.sense_batch(corpus, engine, bed.tag_id());
  const GridGeometryCache::Stats again = engine.geometry_cache().stats();
  EXPECT_EQ(again.hits + again.misses, 2u);
  EXPECT_EQ(again.builds, 1u);
}

// ---------------------------------------------------------------------------
// solve_position_batch / rank_exhaustive_batch: layer-level contracts
// ---------------------------------------------------------------------------

TEST(BatchedSolve, SolvePositionBatchMatchesPerTag) {
  const Scene scene = make_scene_2d(77);
  const DeploymentGeometry geometry = exact_geometry(scene);
  DisentangleConfig config;
  SolveWorkspace ws;
  GridGeometryCache cache;
  const std::size_t nz = config.grid_nz > 1 ? config.grid_nz : 1;
  const auto table = cache.acquire(
      geometry,
      GridSpec{config.grid_nx, config.grid_ny, nz, config.z_lo, config.z_hi});

  Rng rng(909);
  std::vector<std::vector<AntennaLine>> all_lines;
  for (std::size_t b = 0; b < 6; ++b) {
    const Vec3 truth{0.3 + 1.4 * rng.uniform(), 0.3 + 1.4 * rng.uniform(),
                     0.0};
    all_lines.push_back(exact_lines(geometry, truth,
                                    planar_polarization(rng.uniform(0.0, kPi)),
                                    2e-9 * rng.uniform(), 1.1));
  }
  std::vector<BatchedRankRequest> requests;
  for (const auto& lines : all_lines) {
    requests.push_back(BatchedRankRequest{lines, nullptr});
  }
  std::vector<PositionSolve> out(requests.size());
  std::vector<std::uint8_t> solved(requests.size(), 0);
  solve_position_batch(geometry, requests, config, ws, nullptr, *table, out,
                       solved);
  for (std::size_t b = 0; b < requests.size(); ++b) {
    SCOPED_TRACE("tag " + std::to_string(b));
    ASSERT_EQ(solved[b], 1);
    const PositionSolve single = solve_position(geometry, all_lines[b], config,
                                                ws, nullptr, &cache, nullptr);
    EXPECT_EQ(out[b].position.x, single.position.x);
    EXPECT_EQ(out[b].position.y, single.position.y);
    EXPECT_EQ(out[b].position.z, single.position.z);
    EXPECT_EQ(out[b].kt, single.kt);
    EXPECT_EQ(out[b].rms, single.rms);
    EXPECT_EQ(out[b].path, single.path);
    EXPECT_EQ(out[b].cells_scanned, single.cells_scanned);
  }
}

TEST(BatchedSolve, TooFewLinesMarksUnsolvedInsteadOfThrowing) {
  const Scene scene = make_scene_2d(78);
  const DeploymentGeometry geometry = exact_geometry(scene);
  DisentangleConfig config;
  SolveWorkspace ws;
  GridGeometryCache cache;
  const auto table = cache.acquire(
      geometry, GridSpec{config.grid_nx, config.grid_ny, 1, config.z_lo,
                         config.z_hi});

  const auto good = exact_lines(geometry, Vec3{0.7, 1.1, 0.0},
                                planar_polarization(0.4), 1e-9, 0.8);
  std::vector<AntennaLine> starved(good.begin(), good.begin() + 2);
  std::vector<BatchedRankRequest> requests{
      BatchedRankRequest{good, nullptr}, BatchedRankRequest{starved, nullptr},
      BatchedRankRequest{good, nullptr}};
  std::vector<PositionSolve> out(3);
  std::vector<std::uint8_t> solved(3, 9);
  solve_position_batch(geometry, requests, config, ws, nullptr, *table, out,
                       solved);
  EXPECT_EQ(solved[0], 1);
  EXPECT_EQ(solved[1], 0);  // solve_position throws on this round alone
  EXPECT_EQ(solved[2], 1);
  EXPECT_EQ(out[0].position.x, out[2].position.x);
  EXPECT_EQ(out[0].rms, out[2].rms);
}

TEST(BatchedSolve, RankExhaustiveBatchMatchesPerTagRank) {
  const Scene scene = make_scene_2d(79);
  const DeploymentGeometry geometry = exact_geometry(scene);
  DisentangleConfig config;
  SolveWorkspace ws;
  GridGeometryCache cache;
  const auto table = cache.acquire(
      geometry, GridSpec{config.grid_nx, config.grid_ny, 1, config.z_lo,
                         config.z_hi});

  Rng rng(911);
  std::vector<std::vector<AntennaLine>> all_lines;
  for (std::size_t b = 0; b < 5; ++b) {
    const Vec3 truth{0.3 + 1.4 * rng.uniform(), 0.3 + 1.4 * rng.uniform(),
                     0.0};
    all_lines.push_back(exact_lines(geometry, truth,
                                    planar_polarization(rng.uniform(0.0, kPi)),
                                    1e-9, 0.5));
  }
  std::vector<simd::Level> levels{simd::Level::kScalar};
  if (simd::detected() == simd::Level::kAvx2) {
    levels.push_back(simd::Level::kAvx2);
  }
  for (simd::Level level : levels) {
    SCOPED_TRACE(simd::name(level));
    std::vector<BatchedRankRequest> requests;
    for (const auto& lines : all_lines) {
      requests.push_back(BatchedRankRequest{lines, nullptr});
    }
    std::vector<StageARank> out(requests.size());
    rank_exhaustive_batch(geometry, requests, *table, ws, out, level);
    for (std::size_t b = 0; b < requests.size(); ++b) {
      const StageARank single =
          rank_exhaustive(geometry, all_lines[b], *table, ws, level);
      // The winner is margin-exact; candidate counts may differ (the
      // batch re-scores pass-local supersets) but never shrink.
      EXPECT_EQ(out[b].cell, single.cell) << "tag " << b;
      EXPECT_EQ(out[b].rss, single.rss) << "tag " << b;
      EXPECT_EQ(out[b].kt, single.kt) << "tag " << b;
    }
  }
}

}  // namespace
}  // namespace rfp
