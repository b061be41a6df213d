/// Solver acceleration contract (DESIGN.md "Solver acceleration"):
/// the production Stage-A ranking lands on the canonical scan's winner
/// bit for bit, batches are deterministic across thread counts, and the
/// GridGeometryCache itself keys/evicts/builds correctly under
/// concurrency.

#include "rfp/core/grid_cache.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "rfp/common/angles.hpp"
#include "rfp/common/constants.hpp"
#include "rfp/common/error.hpp"
#include "rfp/common/rng.hpp"
#include "rfp/core/disentangle.hpp"
#include "rfp/core/engine.hpp"
#include "rfp/core/pipeline.hpp"
#include "rfp/exp/testbed.hpp"
#include "rfp/geom/frame.hpp"
#include "rfp/rfsim/faults.hpp"
#include "rfp/rfsim/scene.hpp"
#include "support/core_test_util.hpp"

namespace rfp {
namespace {

using testutil::exact_geometry;

/// Exact (bitwise on doubles) equality of everything sensing computes.
/// No tolerances on purpose: bit-identity is the contract.
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

/// Exact AntennaLines from the physical model: k_i = C*d_i + kt,
/// b_i = orient_i + bt (same helper as the disentangle tests).
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

/// A mixed corpus: clean rounds plus heavily faulted ones, so the
/// accelerated paths are exercised across full, degraded, and rejected
/// outcomes (the PR 1 harness).
std::vector<RoundTrace> make_corpus(const Testbed& bed, std::size_t n_clean,
                                    std::size_t n_faulted) {
  std::vector<RoundTrace> corpus;
  Rng rng(mix_seed(11, 0xACCE));
  const auto materials = paper_materials();
  const FaultInjector injector(FaultProfile::scaled(0.8, mix_seed(11, 0xFA17)));
  for (std::size_t k = 0; k < n_clean + n_faulted; ++k) {
    const Vec2 p{0.3 + 1.4 * rng.uniform(), 0.3 + 1.4 * rng.uniform()};
    const TagState state = bed.tag_state(p, rng.uniform(0.0, kPi),
                                         materials[k % materials.size()]);
    RoundTrace round = bed.collect(state, 6000 + k);
    if (k >= n_clean) round = injector.apply(round, 6000 + k);
    corpus.push_back(std::move(round));
  }
  return corpus;
}

/// The GridTable a solve under `config` scans.
GridSpec grid_spec(const DisentangleConfig& config) {
  return GridSpec{config.grid_nx, config.grid_ny,
                  std::max<std::size_t>(config.grid_nz, 1), config.z_lo,
                  config.z_hi};
}

// ---------------------------------------------------------------------------
// GridGeometryCache unit tests
// ---------------------------------------------------------------------------

DeploymentGeometry square_geometry() {
  DeploymentGeometry g;
  g.antenna_positions = {{0.0, 0.0, 1.0},
                         {2.0, 0.0, 1.0},
                         {0.0, 2.0, 1.0},
                         {2.0, 2.0, 1.0}};
  for (std::size_t i = 0; i < 4; ++i) {
    g.antenna_frames.push_back(OrthoFrame{});
  }
  g.working_region = Rect{{0.0, 0.0}, {2.0, 2.0}};
  g.tag_plane_z = 0.0;
  return g;
}

GridSpec default_spec() { return GridSpec{41, 41, 1, 0.0, 1.5}; }

TEST(GridGeometryCache, ReusesTableForSameKey) {
  GridGeometryCache cache;
  const DeploymentGeometry g = square_geometry();
  const auto a = cache.acquire(g, default_spec());
  const auto b = cache.acquire(g, default_spec());
  EXPECT_EQ(a.get(), b.get());
  const auto stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_GT(stats.bytes, 0u);
}

TEST(GridGeometryCache, TableMatchesScanGeometry) {
  GridGeometryCache cache;
  const DeploymentGeometry g = square_geometry();
  const GridSpec spec = default_spec();
  const auto table = cache.acquire(g, spec);
  ASSERT_EQ(table->n_cells(), 41u * 41u);
  ASSERT_EQ(table->n_antennas, 4u);
  // Cell coordinates are the canonical scan expressions, bit-for-bit.
  const Rect& region = g.working_region;
  for (std::size_t ix = 0; ix < spec.nx; ++ix) {
    EXPECT_EQ(table->xs[ix],
              grid_axis_coord(region.lo.x, region.width(), ix, spec.nx));
  }
  // Distances are the exact distance() doubles at those cells.
  const std::size_t cell = 17 * spec.nx + 5;  // arbitrary interior cell
  const Vec3 p = table->cell_position(cell);
  for (std::size_t a = 0; a < 4; ++a) {
    EXPECT_EQ(table->dist[cell * 4 + a], distance(g.antenna_positions[a], p));
  }
}

TEST(GridGeometryCache, GeometryChangeMisses) {
  GridGeometryCache cache;
  DeploymentGeometry g = square_geometry();
  const auto a = cache.acquire(g, default_spec());
  g.antenna_positions[2].x += 0.001;  // 1 mm survey correction
  const auto b = cache.acquire(g, default_spec());
  EXPECT_NE(a.get(), b.get());
  EXPECT_EQ(cache.stats().misses, 2u);
  EXPECT_EQ(cache.stats().entries, 2u);
}

TEST(GridGeometryCache, GridChangeMisses) {
  GridGeometryCache cache;
  const DeploymentGeometry g = square_geometry();
  const auto a = cache.acquire(g, default_spec());
  GridSpec finer = default_spec();
  finer.nx = 81;
  const auto b = cache.acquire(g, finer);
  EXPECT_NE(a.get(), b.get());
  EXPECT_EQ(b->spec.nx, 81u);
}

TEST(GridGeometryCache, FramesAndPlanarZRangeDoNotInvalidate) {
  // The distance table depends on neither the antenna frames nor (in 2D
  // mode) the 3D z range — changing them must hit the same entry.
  GridGeometryCache cache;
  DeploymentGeometry g = square_geometry();
  const auto a = cache.acquire(g, default_spec());
  g.antenna_frames[0] = OrthoFrame{{0, 1, 0}, {0, 0, 1}, {1, 0, 0}};
  GridSpec spec = default_spec();
  spec.z_lo = -3.0;
  spec.z_hi = 9.0;
  const auto b = cache.acquire(g, spec);
  EXPECT_EQ(a.get(), b.get());
  EXPECT_EQ(cache.stats().hits, 1u);
}

TEST(GridGeometryCache, CapacityEvictsOldestFirst) {
  GridGeometryCache cache(/*max_entries=*/2);
  DeploymentGeometry g = square_geometry();
  const auto first = cache.acquire(g, default_spec());
  g.antenna_positions[0].x += 0.01;
  cache.acquire(g, default_spec());
  g.antenna_positions[0].x += 0.01;
  cache.acquire(g, default_spec());
  const auto stats = cache.stats();
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.evictions, 1u);
  // The first (evicted) table is still usable by its holders.
  EXPECT_EQ(first->n_cells(), 41u * 41u);
  // Re-acquiring the first geometry is a miss again.
  DeploymentGeometry original = square_geometry();
  cache.acquire(original, default_spec());
  EXPECT_EQ(cache.stats().misses, 4u);
}

TEST(GridGeometryCache, DegenerateGridThrows) {
  GridGeometryCache cache;
  const DeploymentGeometry g = square_geometry();
  EXPECT_THROW(cache.acquire(g, GridSpec{1, 41, 1, 0.0, 0.0}),
               InvalidArgument);
  EXPECT_THROW(cache.acquire(DeploymentGeometry{}, default_spec()),
               InvalidArgument);
}

TEST(GridGeometryCache, ConcurrentFirstBuildSharesOneTable) {
  // Many workers race to build the same missing entry; everyone must end
  // up with the single winning table (TSan covers the synchronization).
  GridGeometryCache cache;
  const DeploymentGeometry g = square_geometry();
  constexpr std::size_t kThreads = 8;
  std::vector<std::shared_ptr<const GridTable>> tables(kThreads);
  {
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (std::size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back(
          [&, t] { tables[t] = cache.acquire(g, default_spec()); });
    }
    for (auto& thread : threads) thread.join();
  }
  for (std::size_t t = 1; t < kThreads; ++t) {
    EXPECT_EQ(tables[0].get(), tables[t].get());
  }
  const auto stats = cache.stats();
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_GE(stats.builds, 1u);
  EXPECT_EQ(stats.hits + stats.misses, kThreads);
}

// ---------------------------------------------------------------------------
// Determinism of the one Stage-A path
// ---------------------------------------------------------------------------

TEST(SolverAccelDeterminism, CachedBatchBitIdenticalAcrossThreadCounts) {
  TestbedConfig config;
  config.n_antennas = 4;
  Testbed bed(config);
  const std::vector<RoundTrace> corpus = make_corpus(bed, 3, 5);

  std::vector<SensingResult> reference;
  for (const RoundTrace& round : corpus) {
    reference.push_back(bed.prism().sense(round, bed.tag_id()));
  }
  for (std::size_t threads : {1u, 2u, 8u}) {
    SensingEngine engine(threads);
    const std::vector<SensingResult> batch =
        bed.prism().sense_batch(corpus, engine, bed.tag_id());
    ASSERT_EQ(batch.size(), reference.size());
    for (std::size_t k = 0; k < batch.size(); ++k) {
      expect_identical(batch[k], reference[k],
                       "threads=" + std::to_string(threads) + " round " +
                           std::to_string(k));
    }
  }
}

TEST(SolverAccelDeterminism, NullCacheMeansSharedCache) {
  const Scene scene = make_scene_2d(73);
  const DeploymentGeometry geometry = exact_geometry(scene);
  const auto lines = exact_lines(geometry, Vec3{0.9, 0.6, 0.0},
                                 planar_polarization(0.5), 1e-9, 0.3);
  DisentangleConfig config;
  SolveWorkspace ws;
  GridGeometryCache own;

  const PositionSolve explicit_cache =
      solve_position(geometry, lines, config, ws, nullptr, &own);
  const auto before = GridGeometryCache::shared().stats();
  const PositionSolve null_cache =
      solve_position(geometry, lines, config, ws, nullptr, nullptr);
  const auto after = GridGeometryCache::shared().stats();
  EXPECT_EQ(after.hits + after.misses, before.hits + before.misses + 1);
  EXPECT_EQ(null_cache.position.x, explicit_cache.position.x);
  EXPECT_EQ(null_cache.position.y, explicit_cache.position.y);
  EXPECT_EQ(null_cache.kt, explicit_cache.kt);
  EXPECT_EQ(null_cache.rms, explicit_cache.rms);
}

// ---------------------------------------------------------------------------
// Production ranking: winners byte-identical to the canonical scan
// ---------------------------------------------------------------------------

TEST(SolverAccelRanking, ColdSolveMatchesCanonicalBitExact) {
  // Over the fitted lines of a clean+faulted corpus, an unrefined solve
  // must report exactly rank_canonical's winning cell.
  TestbedConfig config;
  config.n_antennas = 4;
  Testbed bed(config);
  const std::vector<RoundTrace> corpus = make_corpus(bed, 4, 8);
  const DeploymentGeometry& geometry = bed.prism().config().geometry;
  DisentangleConfig unrefined = bed.prism().config().disentangle;
  unrefined.refine = false;
  GridGeometryCache cache;
  const auto table = cache.acquire(geometry, grid_spec(unrefined));
  SolveWorkspace ws;

  std::size_t compared = 0;
  for (std::size_t k = 0; k < corpus.size(); ++k) {
    SCOPED_TRACE("round " + std::to_string(k));
    const SensingResult sensed = bed.prism().sense(corpus[k], bed.tag_id());
    std::size_t usable = 0;
    for (const AntennaLine& line : sensed.lines) usable += line.fit.n >= 3;
    if (usable < 3) continue;
    const StageARank canonical =
        rank_canonical(geometry, sensed.lines, *table, ws);
    const PositionSolve solve =
        solve_position(geometry, sensed.lines, unrefined, ws, nullptr, &cache);
    const Vec3 cell = table->cell_position(canonical.cell);
    EXPECT_EQ(solve.position.x, cell.x);
    EXPECT_EQ(solve.position.y, cell.y);
    EXPECT_EQ(solve.position.z, cell.z);
    EXPECT_EQ(solve.kt, canonical.kt);
    EXPECT_EQ(solve.rms,
              std::sqrt(canonical.rss / static_cast<double>(usable)));
    ++compared;
  }
  EXPECT_GE(compared, 8u);
}

// ---------------------------------------------------------------------------
// Orientation early stop (satellite)
// ---------------------------------------------------------------------------

TEST(SolverAccelOrientation, EarlyStopAlphaMatchesLegacy) {
  // The golden-section refinement stops at a 1e-6 rad bracket; the
  // recovered angle must still sit within 0.5 degrees of the truth.
  const Scene scene = make_scene_2d(71);
  const DeploymentGeometry geometry = exact_geometry(scene);
  const Vec3 truth{1.2, 1.1, 0.0};
  const DisentangleConfig config;
  for (double alpha : {0.0, 0.4, 1.0, 1.5, 2.2, 2.9}) {
    const auto lines =
        exact_lines(geometry, truth, planar_polarization(alpha), 1e-9, 0.8);
    const OrientationSolve solve =
        solve_orientation(geometry, lines, truth, config);
    ASSERT_NEAR(rad2deg(planar_angle_error(solve.alpha, alpha)), 0.0, 0.5)
        << "alpha=" << alpha;
  }
}

}  // namespace
}  // namespace rfp
