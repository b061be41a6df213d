/// Randomized equivalence of the production Stage-A solve with the
/// canonical scan. An unrefined solve_position_batch must land on
/// rank_canonical's winning cell with bit-identical kt and rms at every
/// batch size and pool size — this suite hammers that over thousands of
/// random rounds: random geometries, degraded antenna subsets, duplicated
/// antennas (multi-line rounds), slope outliers, and NaN-poisoned lines.

#include "rfp/core/disentangle.hpp"

#include <cmath>
#include <cstddef>
#include <memory>
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

/// Unrefined production solve of `rounds` as one batch, sequential when
/// `pool` is null or single-threaded and fanned out by row chunks
/// otherwise.
void solve_batch(const DeploymentGeometry& geometry, const GridTable& table,
                 const std::vector<std::vector<AntennaLine>>& rounds,
                 ThreadPool* pool, SolveWorkspace& ws,
                 std::vector<PositionSolve>& out,
                 std::vector<std::uint8_t>& solved) {
  std::vector<BatchedRankRequest> requests;
  for (const auto& lines : rounds) {
    requests.push_back(BatchedRankRequest{lines, nullptr});
  }
  out.assign(rounds.size(), PositionSolve{});
  solved.assign(rounds.size(), 0);
  solve_position_batch(geometry, requests, unrefined_config(), ws, pool,
                       table, out, solved);
}

void expect_same_rank(const StageARank& canonical, const PositionSolve& solve,
                      const GridTable& table, std::size_t n_usable,
                      const std::string& where) {
  SCOPED_TRACE(where);
  const Vec3 cell = table.cell_position(canonical.cell);
  EXPECT_EQ(solve.path, SolvePath::kExhaustive);
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

  // Batch sizes and deployments cycle independently, so every size meets
  // every antenna count. Rounds of one batch share the deployment but drop
  // and duplicate different antennas, so their line counts differ.
  const std::size_t batch_sizes[] = {1, 2, 7, 16};
  constexpr std::size_t kBatches = 1200;
  std::size_t ranked = 0;
  std::size_t poisoned = 0;
  std::vector<PositionSolve> out;
  std::vector<std::uint8_t> solved;
  for (std::size_t batch = 0; batch < kBatches && !HasFailure(); ++batch) {
    const Deployment& dep = deployments[batch % deployments.size()];
    const std::size_t size = batch_sizes[batch % std::size(batch_sizes)];
    const std::string where = "batch " + std::to_string(batch);

    std::vector<std::vector<AntennaLine>> rounds;
    while (rounds.size() < size) {
      std::vector<AntennaLine> lines = random_lines(rng, dep.geometry, knobs);
      if (usable_count(lines) < 3) continue;  // solver precondition
      if (any_usable_nan(lines)) {
        // A NaN slope poisons every cell's cost: the oracle refuses the
        // round (the production fallback is pinned in its own case below).
        EXPECT_THROW(rank_canonical(dep.geometry, lines, *dep.table, ws),
                     InvalidArgument)
            << where;
        ++poisoned;
        continue;
      }
      rounds.push_back(std::move(lines));
    }

    std::vector<StageARank> canonical;
    for (const auto& lines : rounds) {
      canonical.push_back(rank_canonical(dep.geometry, lines, *dep.table, ws));
    }
    for (ThreadPool* pool : pools) {
      solve_batch(dep.geometry, *dep.table, rounds, pool, ws, out, solved);
      for (std::size_t b = 0; b < size; ++b) {
        ASSERT_EQ(solved[b], 1) << where << " tag " << b;
        expect_same_rank(canonical[b], out[b], *dep.table,
                         usable_count(rounds[b]),
                         where + " tag " + std::to_string(b) + " pool " +
                             std::to_string(pool->size()));
      }
    }
    ranked += size;
  }
  EXPECT_GE(ranked, kBatches * 6);
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
  std::vector<PositionSolve> out;
  std::vector<std::uint8_t> solved;
  solve_batch(geometry, *table, {lines}, nullptr, ws, out, solved);
  ASSERT_EQ(solved[0], 1);
  expect_same_rank(canonical, out[0], *table, lines.size(), "single antenna");
}

TEST(StageARanking, NaNPoisonedRoundFallsBackAloneInItsBatch) {
  // A NaN slope poisons every cell's cost: the oracle finds no finite
  // cell, and the production solve falls back to the region center for
  // that round alone — its clean batch-mates keep the canonical winner.
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
    std::vector<PositionSolve> out;
    std::vector<std::uint8_t> solved;
    solve_batch(geometry, *table, {clean, lines, clean}, p, ws, out, solved);
    ASSERT_EQ(solved[1], 1);
    EXPECT_EQ(out[1].position.x, geometry.working_region.center().x);
    EXPECT_EQ(out[1].position.y, geometry.working_region.center().y);
    EXPECT_TRUE(std::isnan(out[1].rms));
    expect_same_rank(canonical, out[0], *table, usable_count(clean), "tag 0");
    expect_same_rank(canonical, out[2], *table, usable_count(clean), "tag 2");
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
  std::vector<PositionSolve> out;
  std::vector<std::uint8_t> solved;
  solve_batch(geometry, *table, {lines, two}, nullptr, ws, out, solved);
  EXPECT_EQ(solved[0], 1);
  EXPECT_EQ(solved[1], 0);

  const DeploymentGeometry other = random_geometry(rng, 6);
  const auto other_table = cache.acquire(other, GridSpec{21, 21, 1, 0.0, 0.0});
  EXPECT_THROW(solve_batch(geometry, *other_table, {lines}, nullptr, ws, out,
                           solved),
               InvalidArgument);
  EXPECT_THROW(rank_canonical(geometry, lines, *other_table, ws),
               InvalidArgument);
}

}  // namespace
}  // namespace rfp
