#pragma once

#include <cstddef>
#include <cstdint>

#include "rfp/simd/dispatch.hpp"

/// \file kernels.hpp
/// Vectorized micro-kernels for the Stage-A grid ranking (DESIGN.md
/// "Vectorized kernels"). The solver's per-cell slope cost
///
///   rss(p) = Σ_i (x_i − kt)²,   x_i = k_i − K·d_{a_i}(p),  kt = Σ x_i / n
///
/// walks every usable line i. Grouping lines by antenna a with
/// sufficient statistics count_a, S1_a = Σ k, S2_a = Σ k² collapses the
/// per-cell cost to a closed form over the antennas only:
///
///   Σ x_i  = Σ_a (S1_a − count_a·K·d_a)            = c1 + Σ_a q1_a·d_a
///   Σ x_i² = Σ_a (S2_a − 2K·S1_a·d_a + count_a·K²·d_a²)
///          = c2 + Σ_a (p2_a·d_a + p1_a)·d_a
///   rss    = Σ x_i² − (Σ x_i)²/n
///
/// with per-round constants q1_a = −count_a·K, p1_a = −2K·S1_a,
/// p2_a = count_a·K². Three fused multiply-adds per antenna per cell, no
/// per-line gather — and data-parallel across cells over the GridTable's
/// antenna-major distance planes.
///
/// Bit-identity contract: every entry point below produces the same bits
/// for the same cell at every Level (the scalar path uses std::fma in the
/// exact per-lane order of the vector path, and these translation units
/// are compiled with -ffp-contract=off so no extra fusions sneak in).
/// The factored expression is a *different* floating-point expression
/// than the canonical two-pass kernel, so it is used for ranking only —
/// reported values are always canonically re-evaluated at the winners.

namespace rfp::simd {

/// Per-round antenna-factored sufficient statistics, borrowed from the
/// solver's RoundSnapshot (pointers must stay valid for the call).
/// Antennas with no usable line carry all-zero coefficients and
/// contribute exactly 0.0 to every cell.
struct FactoredStats {
  std::size_t n_antennas = 0;
  double c1 = 0.0;             ///< Σ_a S1_a (acc seed)
  double c2 = 0.0;             ///< Σ_a S2_a (acc2 seed)
  double inv_n = 0.0;          ///< 1 / n_lines
  const double* q1 = nullptr;  ///< per antenna: −count_a·K
  const double* p1 = nullptr;  ///< per antenna: −2K·S1_a
  const double* p2 = nullptr;  ///< per antenna: count_a·K²
};

/// Factored ranking cost of the contiguous cells [cell_begin, cell_end)
/// over antenna-major distance planes dist_t[a*cell_stride + cell],
/// written to out[cell - cell_begin]. `cell_end` may run into the
/// GridTable's padded tail (the padding holds finite distances); reads
/// never exceed cell_stride per plane. Any alignment of `out` and any
/// cell_begin are fine (the kernels load unaligned).
///
/// Returns the minimum of the written values with NaN entries skipped
/// (+inf if every value is NaN), fused into the batch loop so callers
/// need no second pass over `out`. A pure selection — no arithmetic — so
/// it is the same double at every level.
double factored_rss_run(Level level, const FactoredStats& stats,
                        const double* dist_t, std::size_t cell_stride,
                        std::size_t cell_begin, std::size_t cell_end,
                        double* out);

/// Single-cell evaluation, bit-identical to the corresponding lane of
/// factored_rss_run at any level.
double factored_rss_cell(const FactoredStats& stats, const double* dist_t,
                         std::size_t cell_stride, std::size_t cell);

/// Tag-batched variant: rank the same cells for `n_stats` rounds that
/// share one distance table, streaming the table once per tag *tile*
/// (pairs on AVX2) instead of once per tag. Writes
/// outs[b][cell - cell_begin] and mins[b] exactly as `n_stats`
/// independent factored_rss_run calls would — per-cell arithmetic is
/// per-tag, so every output double is bit-identical to the single-tag
/// kernel at every level. Callers should keep [cell_begin, cell_end)
/// cache-sized (a grid row) so tile re-reads hit L1/L2 rather than
/// re-streaming DRAM.
void factored_rss_run_batch(Level level, const FactoredStats* stats,
                            std::size_t n_stats, const double* dist_t,
                            std::size_t cell_stride, std::size_t cell_begin,
                            std::size_t cell_end, double* const* outs,
                            double* mins);

/// Ascending indices i in [0, n) with values[i] <= limit (NaN never
/// matches), up to `capacity` stored in idx. Returns the total match
/// count — when it exceeds `capacity`, only the first `capacity` indices
/// were stored and the caller must grow and re-collect. Same selection
/// semantics at every level.
std::size_t collect_below(Level level, const double* values, std::size_t n,
                          double limit, std::uint32_t* idx,
                          std::size_t capacity);

namespace detail {
double factored_rss_run_scalar(const FactoredStats& stats,
                               const double* dist_t, std::size_t cell_stride,
                               std::size_t cell_begin, std::size_t cell_end,
                               double* out);
std::size_t collect_below_scalar(const double* values, std::size_t n,
                                 double limit, std::uint32_t* idx,
                                 std::size_t capacity);
/// Defined only when the build compiles the AVX2 translation unit; never
/// call directly — route through the dispatching entry points.
double factored_rss_run_avx2(const FactoredStats& stats, const double* dist_t,
                             std::size_t cell_stride, std::size_t cell_begin,
                             std::size_t cell_end, double* out);
std::size_t collect_below_avx2(const double* values, std::size_t n,
                               double limit, std::uint32_t* idx,
                               std::size_t capacity);
void factored_rss_run_batch_scalar(const FactoredStats* stats,
                                   std::size_t n_stats, const double* dist_t,
                                   std::size_t cell_stride,
                                   std::size_t cell_begin,
                                   std::size_t cell_end, double* const* outs,
                                   double* mins);
void factored_rss_run_batch_avx2(const FactoredStats* stats,
                                 std::size_t n_stats, const double* dist_t,
                                 std::size_t cell_stride,
                                 std::size_t cell_begin, std::size_t cell_end,
                                 double* const* outs, double* mins);
}  // namespace detail

}  // namespace rfp::simd
