#include <cmath>
#include <limits>

#include "rfp/simd/kernels.hpp"

/// Scalar reference kernels. This translation unit is compiled with
/// -ffp-contract=off: the only fusions are the explicit std::fma calls,
/// which mirror the AVX2 path's vfmadd instructions one-for-one — that,
/// plus identical accumulation order per lane, is what makes dispatch
/// levels byte-identical. (std::fma goes through libm here — this TU must
/// run on CPUs without the FMA instruction set, so it cannot be compiled
/// with -mfma. The scalar level is the portability/sanitizer reference,
/// not a throughput path.)

namespace rfp::simd {

double factored_rss_cell(const FactoredStats& stats, const double* dist_t,
                         std::size_t cell_stride, std::size_t cell) {
  double acc = stats.c1;
  double acc2 = stats.c2;
  for (std::size_t a = 0; a < stats.n_antennas; ++a) {
    const double d = dist_t[a * cell_stride + cell];
    acc = std::fma(stats.q1[a], d, acc);
    acc2 = std::fma(std::fma(stats.p2[a], d, stats.p1[a]), d, acc2);
  }
  const double mean_sq = (acc * acc) * stats.inv_n;
  return acc2 - mean_sq;
}

namespace detail {

double factored_rss_run_scalar(const FactoredStats& stats,
                               const double* dist_t, std::size_t cell_stride,
                               std::size_t cell_begin, std::size_t cell_end,
                               double* out) {
  double min = std::numeric_limits<double>::infinity();
  for (std::size_t cell = cell_begin; cell < cell_end; ++cell) {
    const double rss = factored_rss_cell(stats, dist_t, cell_stride, cell);
    out[cell - cell_begin] = rss;
    min = rss < min ? rss : min;  // NaN compares false: skipped
  }
  return min;
}

std::size_t collect_below_scalar(const double* values, std::size_t n,
                                 double limit, std::uint32_t* idx,
                                 std::size_t capacity) {
  std::size_t count = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (values[i] <= limit) {
      if (count < capacity) idx[count] = static_cast<std::uint32_t>(i);
      ++count;
    }
  }
  return count;
}

void factored_rss_run_batch_scalar(const FactoredStats* stats,
                                   std::size_t n_stats, const double* dist_t,
                                   std::size_t cell_stride,
                                   std::size_t cell_begin,
                                   std::size_t cell_end, double* const* outs,
                                   double* mins) {
  for (std::size_t b = 0; b < n_stats; ++b) {
    mins[b] = factored_rss_run_scalar(stats[b], dist_t, cell_stride,
                                      cell_begin, cell_end, outs[b]);
  }
}

}  // namespace detail

double factored_rss_run(Level level, const FactoredStats& stats,
                        const double* dist_t, std::size_t cell_stride,
                        std::size_t cell_begin, std::size_t cell_end,
                        double* out) {
#if defined(RFP_HAVE_AVX2)
  if (level == Level::kAvx2) {
    return detail::factored_rss_run_avx2(stats, dist_t, cell_stride,
                                         cell_begin, cell_end, out);
  }
#endif
  (void)level;
  return detail::factored_rss_run_scalar(stats, dist_t, cell_stride,
                                         cell_begin, cell_end, out);
}

std::size_t collect_below(Level level, const double* values, std::size_t n,
                          double limit, std::uint32_t* idx,
                          std::size_t capacity) {
#if defined(RFP_HAVE_AVX2)
  if (level == Level::kAvx2) {
    return detail::collect_below_avx2(values, n, limit, idx, capacity);
  }
#endif
  (void)level;
  return detail::collect_below_scalar(values, n, limit, idx, capacity);
}

void factored_rss_run_batch(Level level, const FactoredStats* stats,
                            std::size_t n_stats, const double* dist_t,
                            std::size_t cell_stride, std::size_t cell_begin,
                            std::size_t cell_end, double* const* outs,
                            double* mins) {
#if defined(RFP_HAVE_AVX2)
  if (level == Level::kAvx2) {
    detail::factored_rss_run_batch_avx2(stats, n_stats, dist_t, cell_stride,
                                        cell_begin, cell_end, outs, mins);
    return;
  }
#endif
  (void)level;
  detail::factored_rss_run_batch_scalar(stats, n_stats, dist_t, cell_stride,
                                        cell_begin, cell_end, outs, mins);
}

}  // namespace rfp::simd
