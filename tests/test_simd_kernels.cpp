/// rfp::simd contract tests (ctest label: simd — the sanitizer jobs run
/// these suites with RFP_FORCE_SCALAR both unset and set):
///  - dispatch resolution (cpuid level, RFP_FORCE_SCALAR parsing);
///  - bit-identity of the scalar and AVX2 kernels over unaligned starts,
///    ragged tails, and padded strides — the property the ranking layer's
///    determinism contract stands on;
///  - skip-NaN minimum and collect_below selection semantics at every
///    level.

#include "rfp/simd/kernels.hpp"

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "rfp/common/aligned.hpp"
#include "rfp/common/rng.hpp"
#include "rfp/simd/dispatch.hpp"

namespace rfp::simd {
namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

/// Owning random factored-stats fixture: plausible magnitudes for the
/// solver's coefficients (K ~ 1e-7, distances ~ metres), but the kernel
/// contract is pure arithmetic — any finite values must agree bitwise.
struct StatsFixture {
  std::vector<double> q1, p1, p2;
  FactoredStats stats;

  StatsFixture(Rng& rng, std::size_t n_antennas) {
    q1.resize(n_antennas);
    p1.resize(n_antennas);
    p2.resize(n_antennas);
    double c1 = 0.0, c2 = 0.0;
    std::size_t n_lines = 0;
    for (std::size_t a = 0; a < n_antennas; ++a) {
      const double count = 1.0 + static_cast<double>(rng.uniform_index(3));
      const double k = 1e-7 * (0.5 + rng.uniform());
      const double s1 = count * k * (1.0 + 4.0 * rng.uniform());
      q1[a] = -count * k;
      p1[a] = -2.0 * k * s1;
      p2[a] = count * k * k;
      c1 += s1;
      c2 += s1 * s1 / count * (1.0 + 0.1 * rng.uniform());
      n_lines += static_cast<std::size_t>(count);
    }
    stats.n_antennas = n_antennas;
    stats.c1 = c1;
    stats.c2 = c2;
    stats.inv_n = 1.0 / static_cast<double>(n_lines);
    stats.q1 = q1.data();
    stats.p1 = p1.data();
    stats.p2 = p2.data();
  }
};

/// Antenna-major distance planes with the GridTable's padded layout:
/// stride rounds n_cells up to a multiple of 8, padding holds finite
/// values.
AlignedVector<double> random_planes(Rng& rng, std::size_t n_antennas,
                                    std::size_t stride) {
  AlignedVector<double> dist(n_antennas * stride);
  for (double& d : dist) d = 0.3 + 2.5 * rng.uniform();
  return dist;
}

std::size_t padded_stride(std::size_t n_cells) { return (n_cells + 7) / 8 * 8; }

bool avx2_runnable() { return compiled_avx2() && detected() >= Level::kAvx2; }

/// Every level this host/build can actually execute.
std::vector<Level> runnable_levels() {
  std::vector<Level> levels{Level::kScalar};
  if (avx2_runnable()) levels.push_back(Level::kAvx2);
  return levels;
}

// ---------------------------------------------------------------------------
// Dispatch
// ---------------------------------------------------------------------------

TEST(SimdDispatch, NamesAreStable) {
  EXPECT_STREQ(name(Level::kScalar), "scalar");
  EXPECT_STREQ(name(Level::kAvx2), "avx2");
}

TEST(SimdDispatch, DetectedNeverExceedsCompiledSupport) {
  if (!compiled_avx2()) {
    EXPECT_EQ(detected(), Level::kScalar)
        << "build has no AVX2 translation unit, nothing else may be detected";
  }
  // active() can only ever narrow detected(), never widen it.
  EXPECT_TRUE(active() <= detected());
}

TEST(SimdDispatch, LevelFromEnvParsesOverride) {
  // Unset / explicit "no" spellings pass the detected level through.
  for (const char* off : {static_cast<const char*>(nullptr), "", "0", "false",
                          "off"}) {
    EXPECT_EQ(resolve_level(Level::kAvx2, off), Level::kAvx2)
        << "value: " << (off ? off : "<unset>");
    EXPECT_EQ(resolve_level(Level::kScalar, off), Level::kScalar);
  }
  // Anything else demands the scalar path.
  for (const char* on : {"1", "true", "yes", "scalar", "anything"}) {
    EXPECT_EQ(resolve_level(Level::kAvx2, on), Level::kScalar)
        << "value: " << on;
  }
  // Forcing scalar on a scalar-only machine is a no-op, not an error.
  EXPECT_EQ(resolve_level(Level::kScalar, "1"), Level::kScalar);
}

TEST(SimdDispatch, ActiveHonorsForceScalarEnvironment) {
  // active() is pinned at first use; it must equal re-resolving the
  // current environment (the variable cannot have changed under a test
  // runner). With RFP_FORCE_SCALAR=1 in the environment — the CI
  // forced-scalar lanes — this asserts the scalar path actually engaged.
  const char* force = std::getenv("RFP_FORCE_SCALAR");
  EXPECT_EQ(active(), resolve_level(detected(), force));
  if (force != nullptr && std::string(force) == "1") {
    EXPECT_EQ(active(), Level::kScalar);
  }
}

// ---------------------------------------------------------------------------
// Kernel bit-identity across dispatch levels
// ---------------------------------------------------------------------------

TEST(SimdKernels, ScalarRunMatchesSingleCell) {
  Rng rng(4101);
  for (std::size_t n_antennas : {1u, 3u, 4u, 9u}) {
    const std::size_t n_cells = 37;
    const std::size_t stride = padded_stride(n_cells);
    const StatsFixture fx(rng, n_antennas);
    const AlignedVector<double> dist = random_planes(rng, n_antennas, stride);
    std::vector<double> out(n_cells);
    const double min = factored_rss_run(Level::kScalar, fx.stats, dist.data(),
                                        stride, 0, n_cells, out.data());
    double expect_min = kInf;
    for (std::size_t cell = 0; cell < n_cells; ++cell) {
      const double rss = factored_rss_cell(fx.stats, dist.data(), stride, cell);
      EXPECT_EQ(out[cell], rss) << "cell " << cell;
      expect_min = rss < expect_min ? rss : expect_min;
    }
    EXPECT_EQ(min, expect_min);
  }
}

TEST(SimdKernels, Avx2MatchesScalarBitExact) {
  if (!avx2_runnable()) GTEST_SKIP() << "AVX2 unavailable on this host/build";
  Rng rng(4102);
  // Every loop regime of the AVX2 kernel: below one 4-lane vector, the
  // 4/8/16-wide bodies, and ragged tails of each — plus unaligned begins
  // (window scans start mid-row) and the padded full-stride run.
  for (std::size_t n_antennas : {1u, 2u, 4u, 7u, 12u}) {
    for (std::size_t n_cells :
         {1u, 2u, 3u, 4u, 5u, 7u, 8u, 9u, 15u, 16u, 17u, 31u, 33u, 41u,
          64u, 100u}) {
      const std::size_t stride = padded_stride(n_cells + 6);
      const StatsFixture fx(rng, n_antennas);
      const AlignedVector<double> dist =
          random_planes(rng, n_antennas, stride);
      for (std::size_t begin : {0u, 1u, 2u, 3u, 5u}) {
        if (begin + n_cells > stride) continue;
        std::vector<double> scalar_out(n_cells, -1.0);
        std::vector<double> avx2_out(n_cells, -2.0);
        const double scalar_min = factored_rss_run(
            Level::kScalar, fx.stats, dist.data(), stride, begin,
            begin + n_cells, scalar_out.data());
        const double avx2_min = factored_rss_run(
            Level::kAvx2, fx.stats, dist.data(), stride, begin,
            begin + n_cells, avx2_out.data());
        ASSERT_EQ(std::memcmp(scalar_out.data(), avx2_out.data(),
                              n_cells * sizeof(double)),
                  0)
            << "antennas=" << n_antennas << " cells=" << n_cells
            << " begin=" << begin;
        ASSERT_EQ(scalar_min, avx2_min);
      }
    }
  }
}

TEST(SimdKernels, BatchedRunMatchesPerTagAtEveryLevel) {
  Rng rng(4113);
  // The batched entry must write the exact doubles of B independent
  // single-tag runs over the shared table — including around the AVX2
  // pair-tile boundaries and their remainders.
  const std::size_t n_antennas = 6;
  for (Level level : runnable_levels()) {
    SCOPED_TRACE(name(level));
    for (std::size_t batch :
         {1u, 2u, 3u, 4u, 5u, 7u, 8u, 9u, 11u, 12u, 16u}) {
      for (std::size_t n_cells : {1u, 7u, 16u, 33u, 100u}) {
        const std::size_t stride = padded_stride(n_cells + 6);
        const AlignedVector<double> dist =
            random_planes(rng, n_antennas, stride);
        std::vector<StatsFixture> tags;
        tags.reserve(batch);
        std::vector<FactoredStats> stats;
        for (std::size_t b = 0; b < batch; ++b) {
          tags.emplace_back(rng, n_antennas);
          stats.push_back(tags.back().stats);
        }
        for (std::size_t begin : {0u, 3u}) {
          if (begin + n_cells > stride) continue;
          std::vector<std::vector<double>> batch_out(
              batch, std::vector<double>(n_cells, -2.0));
          std::vector<double*> outs;
          for (auto& o : batch_out) outs.push_back(o.data());
          std::vector<double> mins(batch, -3.0);
          factored_rss_run_batch(level, stats.data(), batch, dist.data(),
                                 stride, begin, begin + n_cells, outs.data(),
                                 mins.data());
          for (std::size_t b = 0; b < batch; ++b) {
            std::vector<double> single(n_cells, -1.0);
            const double single_min = factored_rss_run(
                level, stats[b], dist.data(), stride, begin, begin + n_cells,
                single.data());
            ASSERT_EQ(std::memcmp(single.data(), batch_out[b].data(),
                                  n_cells * sizeof(double)),
                      0)
                << "tag=" << b << " batch=" << batch << " cells=" << n_cells
                << " begin=" << begin;
            ASSERT_EQ(single_min, mins[b]) << "tag=" << b;
          }
        }
      }
    }
  }
}

TEST(SimdKernels, BatchedRunFallsBackOnMixedAntennaCounts) {
  Rng rng(4114);
  // Tags with different antenna counts cannot share a pair tile; the
  // batch must quietly fall back to single-tag runs for them.
  const std::size_t n_cells = 41, stride = padded_stride(n_cells);
  const std::size_t counts[] = {6, 3, 6, 6, 2, 6, 6, 6};
  const AlignedVector<double> dist = random_planes(rng, 6, stride);
  std::vector<StatsFixture> tags;
  tags.reserve(std::size(counts));
  std::vector<FactoredStats> stats;
  for (std::size_t c : counts) {
    tags.emplace_back(rng, c);
    stats.push_back(tags.back().stats);
  }
  for (Level level : runnable_levels()) {
    SCOPED_TRACE(name(level));
    std::vector<std::vector<double>> batch_out(
        stats.size(), std::vector<double>(n_cells, -2.0));
    std::vector<double*> outs;
    for (auto& o : batch_out) outs.push_back(o.data());
    std::vector<double> mins(stats.size(), -3.0);
    factored_rss_run_batch(level, stats.data(), stats.size(), dist.data(),
                           stride, 0, n_cells, outs.data(), mins.data());
    for (std::size_t b = 0; b < stats.size(); ++b) {
      std::vector<double> single(n_cells, -1.0);
      const double single_min = factored_rss_run(
          level, stats[b], dist.data(), stride, 0, n_cells, single.data());
      ASSERT_EQ(std::memcmp(single.data(), batch_out[b].data(),
                            n_cells * sizeof(double)),
                0)
          << "tag=" << b;
      ASSERT_EQ(single_min, mins[b]) << "tag=" << b;
    }
  }
}

TEST(SimdKernels, BatchedRunOctTileThenMixedGroupFallsBack) {
  Rng rng(4117);
  // The first nine tags share an antenna count (full pair tiles plus an
  // odd one out); the next group mixes counts, so the dispatcher must
  // degrade to single runs without disturbing the first group's outputs.
  const std::size_t n_cells = 53, stride = padded_stride(n_cells);
  const std::size_t counts[] = {6, 6, 6, 6, 6, 6, 6, 6, 6, 3, 6, 6, 2, 6};
  const AlignedVector<double> dist = random_planes(rng, 6, stride);
  std::vector<StatsFixture> tags;
  tags.reserve(std::size(counts));
  std::vector<FactoredStats> stats;
  for (std::size_t c : counts) {
    tags.emplace_back(rng, c);
    stats.push_back(tags.back().stats);
  }
  for (Level level : runnable_levels()) {
    SCOPED_TRACE(name(level));
    std::vector<std::vector<double>> batch_out(
        stats.size(), std::vector<double>(n_cells, -2.0));
    std::vector<double*> outs;
    for (auto& o : batch_out) outs.push_back(o.data());
    std::vector<double> mins(stats.size(), -3.0);
    factored_rss_run_batch(level, stats.data(), stats.size(), dist.data(),
                           stride, 0, n_cells, outs.data(), mins.data());
    for (std::size_t b = 0; b < stats.size(); ++b) {
      std::vector<double> single(n_cells, -1.0);
      const double single_min = factored_rss_run(
          level, stats[b], dist.data(), stride, 0, n_cells, single.data());
      ASSERT_EQ(std::memcmp(single.data(), batch_out[b].data(),
                            n_cells * sizeof(double)),
                0)
          << "tag=" << b;
      ASSERT_EQ(single_min, mins[b]) << "tag=" << b;
    }
  }
}

TEST(SimdKernels, BatchedRunSkipsNaNPerTag) {
  Rng rng(4115);
  // One tag's NaN cells must not leak into its tile partners' minima.
  const std::size_t n_antennas = 4, n_cells = 29;
  const std::size_t stride = padded_stride(n_cells);
  AlignedVector<double> dist = random_planes(rng, n_antennas, stride);
  for (std::size_t cell : {0u, 8u, 28u}) dist[cell] = kNan;
  std::vector<StatsFixture> tags;
  std::vector<FactoredStats> stats;
  for (std::size_t b = 0; b < 5; ++b) {
    tags.emplace_back(rng, n_antennas);
    stats.push_back(tags.back().stats);
  }
  for (Level level : runnable_levels()) {
    SCOPED_TRACE(name(level));
    std::vector<std::vector<double>> batch_out(
        stats.size(), std::vector<double>(n_cells, -2.0));
    std::vector<double*> outs;
    for (auto& o : batch_out) outs.push_back(o.data());
    std::vector<double> mins(stats.size(), -3.0);
    factored_rss_run_batch(level, stats.data(), stats.size(), dist.data(),
                           stride, 0, n_cells, outs.data(), mins.data());
    for (std::size_t b = 0; b < stats.size(); ++b) {
      EXPECT_TRUE(std::isfinite(mins[b])) << "tag=" << b;
      for (std::size_t cell : {0u, 8u, 28u}) {
        EXPECT_TRUE(std::isnan(batch_out[b][cell]))
            << "tag=" << b << " cell=" << cell;
      }
      std::vector<double> single(n_cells);
      const double single_min = factored_rss_run(
          level, stats[b], dist.data(), stride, 0, n_cells, single.data());
      ASSERT_EQ(single_min, mins[b]) << "tag=" << b;
    }
  }
}

TEST(SimdKernels, DispatchedRunIsPureRouting) {
  // The public entry point at an explicit level must equal the level's
  // kernel — no extra arithmetic in the dispatcher.
  Rng rng(4103);
  const std::size_t n_cells = 53, stride = padded_stride(n_cells);
  const StatsFixture fx(rng, 5);
  const AlignedVector<double> dist = random_planes(rng, 5, stride);
  std::vector<double> direct(n_cells), routed(n_cells);
  const double dm = detail::factored_rss_run_scalar(
      fx.stats, dist.data(), stride, 0, n_cells, direct.data());
  const double rm = factored_rss_run(Level::kScalar, fx.stats, dist.data(),
                                     stride, 0, n_cells, routed.data());
  EXPECT_EQ(dm, rm);
  EXPECT_EQ(std::memcmp(direct.data(), routed.data(),
                        n_cells * sizeof(double)),
            0);
}

TEST(SimdKernels, MinSkipsNaNCellsAtEveryLevel) {
  Rng rng(4104);
  const std::size_t n_cells = 29, stride = padded_stride(n_cells);
  const std::size_t n_antennas = 4;
  const StatsFixture fx(rng, n_antennas);
  AlignedVector<double> dist = random_planes(rng, n_antennas, stride);
  // Poison a scattering of cells (one NaN distance makes the cell's cost
  // NaN) — including cell 0 and the last cell, the reduction edges.
  for (std::size_t cell : {0u, 7u, 8u, 15u, 28u}) dist[cell] = kNan;

  for (Level level : runnable_levels()) {
    SCOPED_TRACE(name(level));
    std::vector<double> out(n_cells);
    const double min = factored_rss_run(level, fx.stats, dist.data(), stride,
                                        0, n_cells, out.data());
    double expect_min = kInf;
    for (std::size_t cell = 0; cell < n_cells; ++cell) {
      if (std::isnan(out[cell])) continue;
      expect_min = out[cell] < expect_min ? out[cell] : expect_min;
    }
    EXPECT_TRUE(std::isfinite(min));
    EXPECT_EQ(min, expect_min);
    for (std::size_t cell : {0u, 7u, 8u, 15u, 28u}) {
      EXPECT_TRUE(std::isnan(out[cell])) << "cell " << cell;
    }
  }
}

TEST(SimdKernels, AllNaNRunReturnsInfinity) {
  Rng rng(4105);
  const std::size_t n_cells = 21, stride = padded_stride(n_cells);
  const StatsFixture fx(rng, 3);
  AlignedVector<double> dist(3 * stride, kNan);
  for (Level level : runnable_levels()) {
    SCOPED_TRACE(name(level));
    std::vector<double> out(n_cells);
    EXPECT_EQ(factored_rss_run(level, fx.stats, dist.data(), stride, 0,
                               n_cells, out.data()),
              kInf);
  }
}

// ---------------------------------------------------------------------------
// collect_below
// ---------------------------------------------------------------------------

TEST(SimdCollect, SelectsAscendingInclusiveSkippingNaN) {
  const std::vector<double> values{3.0, 1.0, kNan, 2.0,  2.0, 5.0,
                                   kNan, -1.0, 2.0, 2.0000001};
  for (Level level : runnable_levels()) {
    SCOPED_TRACE(name(level));
    std::uint32_t idx[16];
    const std::size_t count =
        collect_below(level, values.data(), values.size(), 2.0, idx, 16);
    ASSERT_EQ(count, 5u);  // 1.0, 2.0, 2.0, -1.0, 2.0 — limit is inclusive
    const std::uint32_t expect[] = {1, 3, 4, 7, 8};
    for (std::size_t i = 0; i < count; ++i) EXPECT_EQ(idx[i], expect[i]);
  }
}

TEST(SimdCollect, OverflowReportsTotalAndFillsPrefix) {
  std::vector<double> values(40, 0.5);
  values[11] = 9.0;  // the only non-match
  for (Level level : runnable_levels()) {
    SCOPED_TRACE(name(level));
    std::uint32_t idx[4] = {999, 999, 999, 999};
    const std::size_t count =
        collect_below(level, values.data(), values.size(), 1.0, idx, 4);
    EXPECT_EQ(count, 39u);  // total matches, beyond capacity
    EXPECT_EQ(idx[0], 0u);
    EXPECT_EQ(idx[1], 1u);
    EXPECT_EQ(idx[2], 2u);
    EXPECT_EQ(idx[3], 3u);  // only the first `capacity` stored
  }
}

TEST(SimdCollect, LevelsAgreeOnRandomInputs) {
  if (!avx2_runnable()) GTEST_SKIP() << "AVX2 unavailable on this host/build";
  Rng rng(4106);
  for (std::size_t n : {1u, 3u, 4u, 5u, 17u, 64u, 101u}) {
    std::vector<double> values(n);
    for (double& v : values) {
      v = rng.uniform() < 0.1 ? kNan : rng.uniform();
    }
    const double limit = 0.3;
    std::vector<std::uint32_t> a(n + 1, 0), b(n + 1, 0);
    const std::size_t ca =
        collect_below(Level::kScalar, values.data(), n, limit, a.data(), n);
    for (Level level : runnable_levels()) {
      if (level == Level::kScalar) continue;
      SCOPED_TRACE(name(level));
      const std::size_t cb =
          collect_below(level, values.data(), n, limit, b.data(), n);
      ASSERT_EQ(ca, cb) << "n=" << n;
      for (std::size_t i = 0; i < ca; ++i) ASSERT_EQ(a[i], b[i]);
    }
  }
}

}  // namespace
}  // namespace rfp::simd
