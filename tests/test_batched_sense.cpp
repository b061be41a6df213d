/// Batch-sensing contract (DESIGN.md "Solver acceleration"): a
/// sense_batch over B rounds senses each round start to finish in its own
/// task against one cached distance table, and the results must be
/// byte-identical to sensing each round sequentially — across thread
/// counts, faulted corpora spanning full/degraded/rejected grades,
/// per-round tag ids, and singleton batches. Also covers the hoisted
/// one-acquire-per-batch cache behaviour and the one-round solve's
/// unsolvable-round report.

#include "rfp/core/pipeline.hpp"

#include <cstddef>
#include <cstdint>
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
// sense_batch: byte-identical to sequential sensing
// ---------------------------------------------------------------------------

TEST(BatchedSense, MatchesSequentialAcrossThreadsAndKernels) {
  TestbedConfig config;
  config.n_antennas = 4;
  Testbed bed(config);
  const std::vector<RoundTrace> corpus = make_corpus(bed, 4, 8);
  const RfPrism& prism = bed.prism();

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
  const auto batch = prism.sense_batch(corpus, tag_ids, &engine);
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
  const auto lookups = [] {
    const GridGeometryCache::Stats stats = GridGeometryCache::shared().stats();
    return stats.hits + stats.misses;
  };
  const std::uint64_t before = lookups();
  (void)prism.sense_batch(corpus, engine, bed.tag_id());
  EXPECT_EQ(lookups(), before + 1)
      << "batched path must acquire the shared table exactly once";
  const std::uint64_t builds = GridGeometryCache::shared().stats().builds;
  (void)prism.sense_batch(corpus, engine, bed.tag_id());
  EXPECT_EQ(lookups(), before + 2);
  EXPECT_EQ(GridGeometryCache::shared().stats().builds, builds);
}

// ---------------------------------------------------------------------------
// try_solve_position: layer-level contracts
// ---------------------------------------------------------------------------

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
  std::vector<AntennaLine> unknown = good;
  unknown[0].antenna = geometry.n_antennas();
  const auto first =
      try_solve_position(geometry, good, config, ws, nullptr, *table);
  EXPECT_FALSE(try_solve_position(geometry, starved, config, ws, nullptr,
                                  *table).has_value());
  EXPECT_FALSE(try_solve_position(geometry, unknown, config, ws, nullptr,
                                  *table).has_value());
  EXPECT_THROW(solve_position(geometry, starved, config, ws, nullptr, &cache),
               InvalidArgument);
  const auto again =
      try_solve_position(geometry, good, config, ws, nullptr, *table);
  ASSERT_TRUE(first.has_value() && again.has_value());
  EXPECT_EQ(first->position.x, again->position.x);
  EXPECT_EQ(first->rms, again->rms);
}

}  // namespace
}  // namespace rfp
