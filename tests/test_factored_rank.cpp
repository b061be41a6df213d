/// Randomized equivalence of the production Stage-A ranking with the
/// canonical scan (ctest label: simd). The margin-exact two-pass contract
/// (DESIGN.md "Vectorized kernels") promises the *same winning cell* with
/// *bit-identical* canonical cost as rank_canonical, at every dispatch
/// level and every batch size — this suite hammers that over thousands of
/// random rounds: random geometries, degraded antenna subsets, duplicated
/// antennas (multi-line rounds), slope outliers, and NaN-poisoned lines.

#include "rfp/core/disentangle.hpp"

#include <cmath>
#include <cstddef>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "rfp/common/constants.hpp"
#include "rfp/common/error.hpp"
#include "rfp/common/rng.hpp"
#include "rfp/common/workspace.hpp"
#include "rfp/core/grid_cache.hpp"
#include "rfp/simd/dispatch.hpp"

namespace rfp {
namespace {

using simd::Level;

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

/// Every dispatch level this host/build can execute.
std::vector<Level> runnable_levels() {
  std::vector<Level> levels{Level::kScalar};
  if (simd::detected() == Level::kAvx2) levels.push_back(Level::kAvx2);
  return levels;
}

void expect_same_rank(const StageARank& canonical, const StageARank& ranked,
                      std::size_t n_cells, const std::string& where) {
  SCOPED_TRACE(where);
  EXPECT_EQ(canonical.cell, ranked.cell);
  EXPECT_EQ(canonical.rss, ranked.rss);  // bitwise: same canonical re-eval
  EXPECT_EQ(canonical.kt, ranked.kt);
  EXPECT_EQ(canonical.candidates, n_cells);
  EXPECT_GE(ranked.candidates, 1u);
  EXPECT_LE(ranked.candidates, n_cells);
}

TEST(FactoredRank, MatchesCanonicalOverRandomRounds) {
  GridGeometryCache cache;
  SolveWorkspace ws;
  const std::vector<Deployment> deployments = make_deployments(cache);
  Rng rng(mix_seed(23, 0xA11));

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
  std::size_t max_candidates = 0;
  for (std::size_t batch = 0; batch < kBatches && !HasFailure(); ++batch) {
    const Deployment& dep = deployments[batch % deployments.size()];
    const std::size_t size = batch_sizes[batch % std::size(batch_sizes)];
    const std::string where = "batch " + std::to_string(batch);

    std::vector<std::vector<AntennaLine>> rounds;
    while (rounds.size() < size) {
      std::vector<AntennaLine> lines = random_lines(rng, dep.geometry, knobs);
      if (usable_count(lines) < 3) continue;  // solver precondition
      if (any_usable_nan(lines)) {
        // A NaN slope poisons every cell's cost: both rankings must refuse
        // the round rather than pick an arbitrary winner.
        EXPECT_THROW(rank_canonical(dep.geometry, lines, *dep.table, ws),
                     InvalidArgument)
            << where;
        EXPECT_THROW(rank_exhaustive(dep.geometry, lines, *dep.table, ws),
                     InvalidArgument)
            << where;
        ++poisoned;
        continue;
      }
      rounds.push_back(std::move(lines));
    }

    std::vector<StageARank> canonical;
    std::vector<BatchedRankRequest> requests;
    for (const auto& lines : rounds) {
      canonical.push_back(rank_canonical(dep.geometry, lines, *dep.table, ws));
      requests.push_back(BatchedRankRequest{lines, nullptr});
    }
    for (Level level : runnable_levels()) {
      std::vector<StageARank> out(size);
      rank_exhaustive_batch(dep.geometry, requests, *dep.table, ws, out,
                            level);
      for (std::size_t b = 0; b < size; ++b) {
        expect_same_rank(canonical[b], out[b], dep.table->n_cells(),
                         where + " tag " + std::to_string(b) + " " +
                             simd::name(level));
        max_candidates = std::max(max_candidates, out[b].candidates);
      }
    }
    ranked += size;
  }
  EXPECT_GE(ranked, kBatches * 6);
  EXPECT_GT(poisoned, 0u) << "corpus never drew a NaN-poisoned round";
  // The margin is conservative but must stay *selective*: re-scoring
  // nearly the whole grid would silently erase the speedup.
  EXPECT_LE(max_candidates, 64u);
}

TEST(FactoredRank, SingleAntennaRoundsStillAgree) {
  // Every usable line on one antenna (count_a = n): the factored closed
  // form collapses to a single-antenna polynomial; must still match.
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
  for (Level level : runnable_levels()) {
    expect_same_rank(canonical,
                     rank_exhaustive(geometry, lines, *table, ws, level),
                     table->n_cells(),
                     std::string("single antenna ") + simd::name(level));
  }
}

TEST(FactoredRank, NaNPoisonedRoundsThrowForEveryKernel) {
  // A NaN slope poisons every cell's cost in the canonical scan; the
  // production ranking must reach the same no-finite-cell conclusion at
  // every level, alone or batched with clean rounds.
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
  for (Level level : runnable_levels()) {
    SCOPED_TRACE(simd::name(level));
    EXPECT_THROW(rank_exhaustive(geometry, lines, *table, ws, level),
                 InvalidArgument);
    const std::vector<BatchedRankRequest> requests{
        {clean, nullptr}, {lines, nullptr}, {clean, nullptr}};
    std::vector<StageARank> out(requests.size());
    EXPECT_THROW(
        rank_exhaustive_batch(geometry, requests, *table, ws, out, level),
        InvalidArgument);
  }
}

TEST(FactoredRank, RejectsTooFewLinesAndMismatchedTable) {
  GridGeometryCache cache;
  SolveWorkspace ws;
  Rng rng(mix_seed(23, 0x7AB));
  const DeploymentGeometry geometry = random_geometry(rng, 4);
  const auto table = cache.acquire(geometry, GridSpec{21, 21, 1, 0.0, 0.0});

  CorpusKnobs clean;
  const auto lines = random_lines(rng, geometry, clean);
  const std::vector<AntennaLine> two(lines.begin(), lines.begin() + 2);
  EXPECT_THROW(rank_exhaustive(geometry, two, *table, ws), InvalidArgument);
  EXPECT_THROW(rank_canonical(geometry, two, *table, ws), InvalidArgument);

  const DeploymentGeometry other = random_geometry(rng, 6);
  const auto other_table = cache.acquire(other, GridSpec{21, 21, 1, 0.0, 0.0});
  EXPECT_THROW(rank_exhaustive(geometry, lines, *other_table, ws),
               InvalidArgument);
  EXPECT_THROW(rank_canonical(geometry, lines, *other_table, ws),
               InvalidArgument);
}

}  // namespace
}  // namespace rfp
