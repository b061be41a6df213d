/// Randomized equivalence of the production Stage-A solve with the
/// canonical scan. An unrefined try_solve_position must land on
/// rank_canonical's winning cell with bit-identical kt and rms at every
/// pool size — this suite hammers that over thousands of random rounds:
/// random geometries, degraded antenna subsets, duplicated antennas
/// (multi-line rounds), slope outliers, and NaN-poisoned lines. Rounds are
/// solved in sequence on one workspace, so a round after a poisoned one
/// also shows that no workspace state leaks from solve to solve.

#include "rfp/core/disentangle.hpp"

#include <cmath>
#include <cstddef>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "rfp/common/constants.hpp"
#include "rfp/common/error.hpp"
#include "rfp/common/rng.hpp"
#include "rfp/common/thread_pool.hpp"
#include "rfp/common/workspace.hpp"
#include "rfp/core/grid_cache.hpp"

namespace rfp {
namespace {

DeploymentGeometry random_geometry(Rng& rng, std::size_t n_antennas) {
  DeploymentGeometry g;
  for (std::size_t a = 0; a < n_antennas; ++a) {
    g.antenna_positions.push_back({rng.uniform(-0.5, 2.5),
                                   rng.uniform(-0.5, 2.5),
                                   rng.uniform(0.8, 1.6)});
    g.antenna_frames.push_back(OrthoFrame{});
  }
  g.working_region = Rect{{0.0, 0.0}, {2.0, 2.0}};
  g.tag_plane_z = 0.0;
  return g;
}

struct CorpusKnobs {
  double drop_prob = 0.0;       ///< degraded subsets: antenna has no line
  double duplicate_prob = 0.0;  ///< streaming-style second line per antenna
  double outlier_prob = 0.0;    ///< gross slope outliers
  double nan_prob = 0.0;        ///< NaN slope with fit.n >= 3 (snapshotted)
  double unusable_prob = 0.0;   ///< fit.n < 3: dropped by the snapshot
};

std::vector<AntennaLine> random_lines(Rng& rng,
                                      const DeploymentGeometry& geometry,
                                      const CorpusKnobs& knobs) {
  const Vec3 truth{rng.uniform(0.0, 2.0), rng.uniform(0.0, 2.0), 0.0};
  const double kt = rng.gaussian(0.0, 2e-9);
  std::vector<AntennaLine> lines;
  for (std::size_t a = 0; a < geometry.n_antennas(); ++a) {
    if (rng.uniform() < knobs.drop_prob) continue;
    const std::size_t copies = rng.uniform() < knobs.duplicate_prob ? 2 : 1;
    for (std::size_t c = 0; c < copies; ++c) {
      AntennaLine line;
      line.antenna = a;
      const double d = distance(geometry.antenna_positions[a], truth);
      double slope = kSlopePerMeter * d + kt + rng.gaussian(0.0, 5e-10);
      if (rng.uniform() < knobs.outlier_prob) {
        slope += rng.gaussian(0.0, 50.0 * kSlopePerMeter);
      }
      if (rng.uniform() < knobs.nan_prob) {
        slope = std::numeric_limits<double>::quiet_NaN();
      }
      line.fit.slope = slope;
      line.fit.intercept = rng.uniform(0.0, 2.0 * kPi);
      line.fit.n =
          rng.uniform() < knobs.unusable_prob ? 2 : kNumChannels;
      line.n_channels = line.fit.n;
      lines.push_back(line);
    }
  }
  return lines;
}

std::size_t usable_count(const std::vector<AntennaLine>& lines) {
  std::size_t n = 0;
  for (const auto& line : lines) n += line.fit.n >= 3 ? 1 : 0;
  return n;
}

bool any_usable_nan(const std::vector<AntennaLine>& lines) {
  for (const auto& line : lines) {
    if (line.fit.n >= 3 && std::isnan(line.fit.slope)) return true;
  }
  return false;
}

/// One pre-built random deployment with its cached 21x21 table.
struct Deployment {
  DeploymentGeometry geometry;
  std::shared_ptr<const GridTable> table;
};

std::vector<Deployment> make_deployments(GridGeometryCache& cache) {
  std::vector<Deployment> out;
  Rng rng(mix_seed(23, 0xFAC7));
  for (std::size_t n_antennas : {3u, 4u, 5u, 6u, 8u, 11u}) {
    Deployment d;
    d.geometry = random_geometry(rng, n_antennas);
    d.table = cache.acquire(d.geometry, GridSpec{21, 21, 1, 0.0, 0.0});
    out.push_back(std::move(d));
  }
  return out;
}

/// Grid config of the deployments' 21x21 tables, unrefined so the solve
/// reports its Stage-A winner as is.
DisentangleConfig unrefined_config() {
  DisentangleConfig config;
  config.grid_nx = 21;
  config.grid_ny = 21;
  config.refine = false;
  return config;
}

/// Unrefined production solve of one round on `ws`, sequential when
/// `pool` is null or single-threaded and fanned out by row chunks
/// otherwise.
std::optional<PositionSolve> solve_round(const DeploymentGeometry& geometry,
                                         const GridTable& table,
                                         const std::vector<AntennaLine>& lines,
                                         ThreadPool* pool, SolveWorkspace& ws) {
  return try_solve_position(geometry, lines, unrefined_config(), ws, pool,
                            table);
}

void expect_same_rank(const StageARank& canonical, const PositionSolve& solve,
                      const GridTable& table, std::size_t n_usable,
                      const std::string& where) {
  SCOPED_TRACE(where);
  const Vec3 cell = table.cell_position(canonical.cell);
  EXPECT_EQ(solve.cells_scanned, table.n_cells());
  EXPECT_EQ(solve.position.x, cell.x);
  EXPECT_EQ(solve.position.y, cell.y);
  EXPECT_EQ(solve.position.z, cell.z);
  EXPECT_EQ(solve.kt, canonical.kt);  // bitwise
  EXPECT_EQ(solve.rms,
            std::sqrt(canonical.rss / static_cast<double>(n_usable)));
}

TEST(StageARanking, MatchesCanonicalOverRandomRounds) {
  GridGeometryCache cache;
  SolveWorkspace ws;
  const std::vector<Deployment> deployments = make_deployments(cache);
  Rng rng(mix_seed(23, 0xA11));
  ThreadPool pool1(1);
  ThreadPool pool2(2);
  ThreadPool pool8(8);
  ThreadPool* const pools[] = {&pool1, &pool2, &pool8};

  CorpusKnobs knobs;
  knobs.drop_prob = 0.25;
  knobs.duplicate_prob = 0.2;
  knobs.outlier_prob = 0.1;
  knobs.nan_prob = 0.01;
  knobs.unusable_prob = 0.1;

  // Deployments cycle round by round, so every antenna count meets the
  // whole corpus mix; rounds drop and duplicate different antennas, so
  // their line counts differ. Every round, poisoned or clean, is solved
  // on the one workspace `ws` at every pool size.
  constexpr std::size_t kRounds = 1200;
  std::size_t ranked = 0;
  std::size_t poisoned = 0;
  for (std::size_t k = 0; ranked + poisoned < kRounds && !HasFailure(); ++k) {
    const Deployment& dep = deployments[k % deployments.size()];
    const std::vector<AntennaLine> lines =
        random_lines(rng, dep.geometry, knobs);
    if (usable_count(lines) < 3) continue;  // solver precondition
    const std::string where = "round " + std::to_string(k);
    if (any_usable_nan(lines)) {
      // A NaN slope poisons every cell's cost: the oracle refuses the
      // round, and the solve falls back to the region center.
      EXPECT_THROW(rank_canonical(dep.geometry, lines, *dep.table, ws),
                   InvalidArgument)
          << where;
      for (ThreadPool* pool : pools) {
        const auto solve =
            solve_round(dep.geometry, *dep.table, lines, pool, ws);
        ASSERT_TRUE(solve.has_value()) << where;
        EXPECT_TRUE(std::isnan(solve->rms)) << where;
      }
      ++poisoned;
      continue;
    }
    const StageARank canonical =
        rank_canonical(dep.geometry, lines, *dep.table, ws);
    for (ThreadPool* pool : pools) {
      const auto solve = solve_round(dep.geometry, *dep.table, lines, pool, ws);
      ASSERT_TRUE(solve.has_value()) << where;
      expect_same_rank(canonical, *solve, *dep.table, usable_count(lines),
                       where + " pool " + std::to_string(pool->size()));
    }
    ++ranked;
  }
  EXPECT_GT(poisoned, 0u) << "corpus never drew a NaN-poisoned round";
}

TEST(StageARanking, SingleAntennaRoundsStillAgree) {
  // Every usable line on one antenna: each cell's cost sees one distance.
  GridGeometryCache cache;
  SolveWorkspace ws;
  Rng rng(mix_seed(23, 0x0451));
  const DeploymentGeometry geometry = random_geometry(rng, 4);
  const auto table = cache.acquire(geometry, GridSpec{21, 21, 1, 0.0, 0.0});

  std::vector<AntennaLine> lines;
  for (std::size_t c = 0; c < 4; ++c) {
    AntennaLine line;
    line.antenna = 2;
    line.fit.slope = kSlopePerMeter * (1.0 + 0.1 * static_cast<double>(c));
    line.fit.intercept = 0.3;
    line.fit.n = kNumChannels;
    line.n_channels = kNumChannels;
    lines.push_back(line);
  }
  const StageARank canonical = rank_canonical(geometry, lines, *table, ws);
  const auto solve = solve_round(geometry, *table, lines, nullptr, ws);
  ASSERT_TRUE(solve.has_value());
  expect_same_rank(canonical, *solve, *table, lines.size(), "single antenna");
}

TEST(StageARanking, NaNPoisonedRoundFallsBackAloneInItsBatch) {
  // A NaN slope poisons every cell's cost: the oracle finds no finite
  // cell, and the production solve falls back to the region center for
  // that round alone — clean rounds solved around it on the same
  // workspace keep the canonical winner.
  GridGeometryCache cache;
  SolveWorkspace ws;
  Rng rng(mix_seed(23, 0xBAD));
  const DeploymentGeometry geometry = random_geometry(rng, 5);
  const auto table = cache.acquire(geometry, GridSpec{21, 21, 1, 0.0, 0.0});
  CorpusKnobs knobs;
  knobs.nan_prob = 1.0;  // every line NaN
  const auto lines = random_lines(rng, geometry, knobs);
  ASSERT_GE(usable_count(lines), 3u);
  ASSERT_TRUE(any_usable_nan(lines));
  const auto clean = random_lines(rng, geometry, CorpusKnobs{});

  EXPECT_THROW(rank_canonical(geometry, lines, *table, ws), InvalidArgument);
  const StageARank canonical = rank_canonical(geometry, clean, *table, ws);
  ThreadPool pool(2);
  for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
    SCOPED_TRACE(p == nullptr ? "sequential" : "pool 2");
    const auto before = solve_round(geometry, *table, clean, p, ws);
    const auto poisoned = solve_round(geometry, *table, lines, p, ws);
    const auto after = solve_round(geometry, *table, clean, p, ws);
    ASSERT_TRUE(before.has_value() && poisoned.has_value() &&
                after.has_value());
    EXPECT_EQ(poisoned->position.x, geometry.working_region.center().x);
    EXPECT_EQ(poisoned->position.y, geometry.working_region.center().y);
    EXPECT_TRUE(std::isnan(poisoned->rms));
    expect_same_rank(canonical, *before, *table, usable_count(clean),
                     "before");
    expect_same_rank(canonical, *after, *table, usable_count(clean), "after");
  }
}

TEST(StageARanking, RejectsTooFewLinesAndMismatchedTable) {
  GridGeometryCache cache;
  SolveWorkspace ws;
  Rng rng(mix_seed(23, 0x7AB));
  const DeploymentGeometry geometry = random_geometry(rng, 4);
  const auto table = cache.acquire(geometry, GridSpec{21, 21, 1, 0.0, 0.0});

  CorpusKnobs clean;
  const auto lines = random_lines(rng, geometry, clean);
  const std::vector<AntennaLine> two(lines.begin(), lines.begin() + 2);
  EXPECT_THROW(rank_canonical(geometry, two, *table, ws), InvalidArgument);
  EXPECT_TRUE(solve_round(geometry, *table, lines, nullptr, ws).has_value());
  EXPECT_FALSE(solve_round(geometry, *table, two, nullptr, ws).has_value());

  const DeploymentGeometry other = random_geometry(rng, 6);
  const auto other_table = cache.acquire(other, GridSpec{21, 21, 1, 0.0, 0.0});
  EXPECT_THROW(solve_round(geometry, *other_table, lines, nullptr, ws),
               InvalidArgument);
  EXPECT_THROW(rank_canonical(geometry, lines, *other_table, ws),
               InvalidArgument);
}

}  // namespace
}  // namespace rfp
