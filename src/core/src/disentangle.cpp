#include "rfp/core/disentangle.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "rfp/common/angles.hpp"
#include "rfp/common/constants.hpp"
#include "rfp/common/error.hpp"
#include "rfp/core/grid_cache.hpp"
#include "rfp/simd/kernels.hpp"
#include "rfp/solver/levenberg_marquardt.hpp"

namespace rfp {

namespace {

/// Flat (structure-of-arrays) snapshot of one round's usable lines —
/// antenna geometry and fitted line parameters copied out of the
/// pointer-chasing AntennaLine vector once per solve, so the grid and
/// orientation scans are tight loops over contiguous data. Lives in a
/// SolveWorkspace (scratch<RoundSnapshot>()), so the arrays are reused
/// across solves.
struct RoundSnapshot {
  std::size_t n = 0;
  std::vector<Vec3> position;        ///< antenna phase centers
  std::vector<double> slope;         ///< fitted k_i [rad/Hz]
  std::vector<double> intercept;     ///< fitted b_i [rad]
  std::vector<OrthoFrame> aperture;  ///< antenna aperture frames
  std::vector<std::size_t> antenna;  ///< original antenna indices

  // Scratch for the orientation stage (single-threaded per solve).
  std::vector<OrthoFrame> ray;            ///< frames at the current position
  std::vector<double> residual_angle;     ///< wrapped intercept residuals

  // Antenna-factored sufficient statistics (DESIGN.md "Vectorized
  // kernels"), folded once per round: with count_a, S1_a = Σ slope,
  // S2_a = Σ slope² over antenna a's usable lines, a cell's ranking cost
  // is a closed form over n_antennas terms — the kernels never walk the
  // lines again. Sized to the deployment's antenna count; antennas with
  // no usable line carry all-zero coefficients.
  std::size_t n_antennas = 0;
  std::vector<double> stat_q1;  ///< per antenna: −count_a·K
  std::vector<double> stat_p1;  ///< per antenna: −2K·S1_a
  std::vector<double> stat_p2;  ///< per antenna: count_a·K²
  double stat_c1 = 0.0;         ///< Σ_a S1_a
  double stat_c2 = 0.0;         ///< Σ_a S2_a
  double stat_s1_abs = 0.0;     ///< Σ_a |S1_a| (factored-margin bound)
};

/// Usable = enough inlier channels to trust the fit (paper §V-A).
void build_snapshot(const DeploymentGeometry& geometry,
                    std::span<const AntennaLine> lines, RoundSnapshot& snap) {
  snap.position.clear();
  snap.slope.clear();
  snap.intercept.clear();
  snap.aperture.clear();
  snap.antenna.clear();
  const bool have_frames =
      geometry.antenna_frames.size() == geometry.n_antennas();
  for (const AntennaLine& line : lines) {
    if (line.fit.n < 3) continue;
    require(line.antenna < geometry.n_antennas(),
            "disentangle: line references unknown antenna");
    snap.position.push_back(geometry.antenna_positions[line.antenna]);
    snap.slope.push_back(line.fit.slope);
    snap.intercept.push_back(line.fit.intercept);
    if (have_frames) {
      snap.aperture.push_back(geometry.antenna_frames[line.antenna]);
    }
    snap.antenna.push_back(line.antenna);
  }
  snap.n = snap.slope.size();

  // Pre-size the Stage-B scratch once per round: fill_ray_frames and
  // intercept_cost run per candidate and must never touch capacity.
  snap.ray.resize(snap.n);
  snap.residual_angle.resize(snap.n);

  // Fold the sufficient statistics. The stat arrays hold (count, S1, S2)
  // during accumulation and are transformed into the kernel coefficients
  // in place afterwards.
  const std::size_t na = geometry.n_antennas();
  snap.n_antennas = na;
  snap.stat_q1.assign(na, 0.0);
  snap.stat_p1.assign(na, 0.0);
  snap.stat_p2.assign(na, 0.0);
  for (std::size_t i = 0; i < snap.n; ++i) {
    const std::size_t a = snap.antenna[i];
    snap.stat_q1[a] += 1.0;
    snap.stat_p1[a] += snap.slope[i];
    snap.stat_p2[a] += snap.slope[i] * snap.slope[i];
  }
  snap.stat_c1 = 0.0;
  snap.stat_c2 = 0.0;
  snap.stat_s1_abs = 0.0;
  for (std::size_t a = 0; a < na; ++a) {
    snap.stat_c1 += snap.stat_p1[a];
    snap.stat_c2 += snap.stat_p2[a];
    snap.stat_s1_abs += std::abs(snap.stat_p1[a]);
    const double count = snap.stat_q1[a];
    const double s1 = snap.stat_p1[a];
    snap.stat_q1[a] = -count * kSlopePerMeter;
    snap.stat_p1[a] = -2.0 * kSlopePerMeter * s1;
    snap.stat_p2[a] = count * kSlopePerMeter * kSlopePerMeter;
  }
}

/// Per-cost-evaluation distance scratch: antenna counts are small, so the
/// common case is a stack array and the loops below compute each distance
/// once and reuse it for both the kt mean and the residuals.
constexpr std::size_t kMaxStackAntennas = 64;

/// Closed-form kt and the slope residual sum of squares at `p`, in one
/// walk of the snapshot (kt enters the equations linearly, so it is
/// eliminated exactly at every candidate).
struct SlopeCost {
  double kt = 0.0;
  double rss = 0.0;
};

SlopeCost slope_cost(const RoundSnapshot& snap, Vec3 p) {
  double stack_dist[kMaxStackAntennas];
  std::vector<double> heap_dist;
  double* dist_to = stack_dist;
  if (snap.n > kMaxStackAntennas) {
    heap_dist.resize(snap.n);
    dist_to = heap_dist.data();
  }
  SlopeCost out;
  double acc = 0.0;
  for (std::size_t i = 0; i < snap.n; ++i) {
    dist_to[i] = distance(snap.position[i], p);
    acc += snap.slope[i] - kSlopePerMeter * dist_to[i];
  }
  out.kt = acc / static_cast<double>(snap.n);
  for (std::size_t i = 0; i < snap.n; ++i) {
    const double r = snap.slope[i] - kSlopePerMeter * dist_to[i] - out.kt;
    out.rss += r * r;
  }
  return out;
}

/// Canonical two-pass cost at one table cell: bit-identical arithmetic to
/// slope_cost (the table stores the exact distance() doubles, and the
/// accumulation order is the same), with both sqrt walks replaced by
/// contiguous loads. Every reported Stage-A value comes from here.
SlopeCost cached_cell_cost(const GridTable& table, const RoundSnapshot& snap,
                           std::size_t cell) {
  const double* dist_row = table.dist.data() + cell * table.n_antennas;
  SlopeCost out;
  double acc = 0.0;
  for (std::size_t i = 0; i < snap.n; ++i) {
    acc += snap.slope[i] - kSlopePerMeter * dist_row[snap.antenna[i]];
  }
  out.kt = acc / static_cast<double>(snap.n);
  for (std::size_t i = 0; i < snap.n; ++i) {
    const double r =
        snap.slope[i] - kSlopePerMeter * dist_row[snap.antenna[i]] - out.kt;
    out.rss += r * r;
  }
  return out;
}

/// The snapshot's sufficient statistics as a kernel view (pointers borrow
/// from the snapshot; valid for the current solve only).
simd::FactoredStats factored_stats(const RoundSnapshot& snap) {
  simd::FactoredStats stats;
  stats.n_antennas = snap.n_antennas;
  stats.c1 = snap.stat_c1;
  stats.c2 = snap.stat_c2;
  stats.inv_n = 1.0 / static_cast<double>(snap.n);
  stats.q1 = snap.stat_q1.data();
  stats.p1 = snap.stat_p1.data();
  stats.p2 = snap.stat_p2.data();
  return stats;
}

/// Conservative bound on |factored − canonical| rss at any cell of
/// `table`: both expressions equal Σx² − n·kt² exactly, and their
/// floating-point results differ by at most a few hundred ulps of the
/// *uncentered* magnitude Σ|per-antenna term| ≤ c2 + 2K·d·Σ|S1| + n(Kd)².
/// Every cell whose factored cost lies within this margin of the factored
/// minimum is re-scored canonically, which makes the factored ranking's
/// winner exactly the canonical scan's strict-< scan-order argmin.
double factored_margin(const RoundSnapshot& snap, const GridTable& table) {
  const double kd = kSlopePerMeter * table.max_dist;
  const double bound = snap.stat_c2 + 2.0 * kd * snap.stat_s1_abs +
                       static_cast<double>(snap.n) * kd * kd;
  return 256.0 * std::numeric_limits<double>::epsilon() *
         static_cast<double>(snap.n + snap.n_antennas + 8) * bound;
}

/// Thread-local margin-candidate index buffer. Pool workers keep theirs
/// warm across chunks/solves; it cannot live in the per-solve workspace
/// because chunks of one solve are scanned concurrently.
std::vector<std::uint32_t>& local_candidate_buffer() {
  static thread_local std::vector<std::uint32_t> buffer(64);
  return buffer;
}

/// Margin candidates of a scored range: indices into `rank[0, count)`
/// with rank[i] <= limit, ascending. Grows the thread-local index buffer
/// and re-collects on the (degenerate-surface) overflow path.
std::span<const std::uint32_t> margin_candidates(const double* rank,
                                                 std::size_t count,
                                                 double limit,
                                                 simd::Level level) {
  std::vector<std::uint32_t>& idx = local_candidate_buffer();
  std::size_t found =
      simd::collect_below(level, rank, count, limit, idx.data(), idx.size());
  if (found > idx.size()) {
    idx.resize(found);
    found =
        simd::collect_below(level, rank, count, limit, idx.data(), idx.size());
  }
  return {idx.data(), found};
}

/// Closed-form bt at polarization w (circular mean of b_i - orient_i) and
/// the wrapped residual sum of squares. Uses snap.residual_angle as
/// scratch; snap.ray must hold the frames at the current tag position.
struct InterceptCost {
  double bt = 0.0;
  double rss = 0.0;
};

InterceptCost intercept_cost(RoundSnapshot& snap, Vec3 w) {
  for (std::size_t i = 0; i < snap.n; ++i) {
    const double orient = polarization_phase(snap.ray[i], w);
    snap.residual_angle[i] = wrap_to_2pi(snap.intercept[i] - orient);
  }
  InterceptCost out;
  out.bt = wrap_to_2pi(circular_mean(snap.residual_angle));
  for (double a : snap.residual_angle) {
    const double r = ang_diff(a, out.bt);
    out.rss += r * r;
  }
  return out;
}

/// Propagation-adjusted aperture frames for all snapshot lines at
/// candidate tag position `p`, into snap.ray (pre-sized per round by
/// build_snapshot).
void fill_ray_frames(RoundSnapshot& snap, Vec3 p) {
  for (std::size_t i = 0; i < snap.n; ++i) {
    snap.ray[i] =
        propagation_adjusted_frame(snap.aperture[i], snap.position[i], p);
  }
}

/// Per-chunk result of the Stage-A grid scan: the first strict minimum in
/// scan order within the chunk's rows.
struct GridBest {
  double rss = std::numeric_limits<double>::infinity();
  double kt = 0.0;
  Vec3 position;
  std::size_t cell = 0;  ///< canonical cell index
  bool any = false;
};

/// Grid-index range [i0, i1] of cells whose axis coordinate falls within
/// [center - halfwidth, center + halfwidth]; false if the window misses
/// the axis entirely.
bool axis_window(double lo, double extent, std::size_t n, double center,
                 double halfwidth, std::size_t& i0, std::size_t& i1) {
  if (!(extent > 0.0) || n < 2) {
    i0 = i1 = 0;
    return true;  // degenerate axis: the single coordinate always "matches"
  }
  const double step = extent / static_cast<double>(n - 1);
  const double f0 = std::floor((center - halfwidth - lo) / step);
  const double f1 = std::ceil((center + halfwidth - lo) / step);
  if (f1 < 0.0 || f0 > static_cast<double>(n - 1)) return false;
  i0 = f0 < 0.0 ? 0 : static_cast<std::size_t>(f0);
  i1 = f1 > static_cast<double>(n - 1) ? n - 1
                                       : static_cast<std::size_t>(f1);
  return i0 <= i1;
}

// ---- Tag-batched factored ranking --------------------------------------
//
// The scans below rank B rounds per shared pass over the cached table
// (simd::factored_rss_run_batch streams each row once per tag tile
// instead of once per tag), then re-score margin candidates canonically.
// Identity argument, per tag: the batched kernel's per-(tag, cell)
// arithmetic is exactly the single-tag kernel's, and margin candidates
// are collected against pass-local minima — a pass minimum is >= the
// tag's whole-scan minimum, so every pass's candidate set is a superset
// of the cells within the margin of the whole-scan minimum. The margin
// guarantee (factored_margin) puts every cell whose canonical cost equals
// the canonical minimum inside *any* such superset, and candidates are
// re-scored canonically in scan order with a strict-< argmin — so the
// winning cell, rss, kt and position are byte-identical to the canonical
// scan (rank_canonical) for any batch, chunking or dispatch level; only
// the amount of canonical re-scoring differs.

/// Thread-local arena for the batched kernels: per-tag value slices plus
/// the pointer/min fan-out arrays. Pool workers keep theirs warm across
/// chunks, like local_candidate_buffer().
struct BatchRankArena {
  std::vector<double> values;
  std::vector<double*> outs;      ///< base slice per tag
  std::vector<double*> seg_outs;  ///< shifted slice per tag (window rows)
  std::vector<double> mins;
  std::vector<double> seg_mins;

  void reserve(std::size_t n_tags, std::size_t cells) {
    if (values.size() < n_tags * cells) values.resize(n_tags * cells);
    if (outs.size() < n_tags) {
      outs.resize(n_tags);
      seg_outs.resize(n_tags);
      mins.resize(n_tags);
      seg_mins.resize(n_tags);
    }
    for (std::size_t b = 0; b < n_tags; ++b) {
      outs[b] = values.data() + b * cells;
    }
  }
};

BatchRankArena& local_batch_arena() {
  static thread_local BatchRankArena arena;
  return arena;
}

/// One shared pass over rows [row_begin, row_end) ranks every tag. A
/// "row" is one (iz, iy) pair: row = iz * ny + iy. Row groups are sized
/// so the group's table planes and per-tag slices stay cache-resident
/// while the kernel's tag tiles re-read them. bests[b] is reduced strict-<
/// in scan order; candidates[b] (optional) counts canonical re-scores per
/// tag.
void scan_grid_rows_factored_batch(const RoundSnapshot* const* snaps,
                                   const simd::FactoredStats* stats,
                                   const double* margins, std::size_t n_tags,
                                   const GridTable& table, simd::Level level,
                                   std::size_t row_begin, std::size_t row_end,
                                   GridBest* bests,
                                   std::size_t* candidates = nullptr) {
  const std::size_t nx = table.spec.nx;
  if (row_begin >= row_end || n_tags == 0) return;
  // ~6K cells/group: a 16-tag batch's out slices (~768KB) plus the group's
  // 8-antenna table planes (~384KB) stay L2-resident, while the per-group
  // passes (margin collect, candidate re-score) amortize over 3x more cells
  // than a 2K-cell group would give.
  const std::size_t group_rows = std::max<std::size_t>(1, 6144 / nx);
  BatchRankArena& arena = local_batch_arena();
  for (std::size_t row = row_begin; row < row_end; row += group_rows) {
    const std::size_t group_end = std::min(row + group_rows, row_end);
    const std::size_t cell_begin = row * nx;
    const std::size_t cell_end = group_end * nx;
    const std::size_t count = cell_end - cell_begin;
    arena.reserve(n_tags, count);
    simd::factored_rss_run_batch(level, stats, n_tags, table.dist_t.data(),
                                 table.cell_stride, cell_begin, cell_end,
                                 arena.outs.data(), arena.mins.data());
    for (std::size_t b = 0; b < n_tags; ++b) {
      // All-NaN costs (a poisoned slope poisons every cell in both
      // kernels): no candidate, exactly like the canonical scan.
      if (!std::isfinite(arena.mins[b])) continue;
      for (std::uint32_t i :
           margin_candidates(arena.outs[b], count, arena.mins[b] + margins[b],
                             level)) {
        const std::size_t cell = cell_begin + i;
        const SlopeCost cost = cached_cell_cost(table, *snaps[b], cell);
        if (candidates != nullptr) ++candidates[b];
        GridBest& best = bests[b];
        if (cost.rss < best.rss) {
          best.rss = cost.rss;
          best.kt = cost.kt;
          best.position = table.cell_position(cell);
          best.cell = cell;
          best.any = true;
        }
      }
    }
  }
}

/// Warm-start window scan: the tags share one window [x0, x1] x [y0, y1]
/// x [z0, z1], each tag's candidate threshold uses its own whole-window
/// minimum, and candidates are re-scored canonically in window scan order
/// — so each tag's winner is the canonical window walk's. Callers account
/// the wx*n_rows scanned cells per tag themselves.
void window_scan_factored_batch(const RoundSnapshot* const* snaps,
                                const simd::FactoredStats* stats,
                                const double* margins, std::size_t n_tags,
                                const GridTable& table, simd::Level level,
                                std::size_t x0, std::size_t x1, std::size_t y0,
                                std::size_t y1, std::size_t z0, std::size_t z1,
                                GridBest* bests) {
  const std::size_t nx = table.spec.nx;
  const std::size_t ny = table.spec.ny;
  const std::size_t wx = x1 - x0 + 1;
  const std::size_t wy = y1 - y0 + 1;
  const std::size_t n_rows = (z1 - z0 + 1) * wy;

  BatchRankArena& arena = local_batch_arena();
  arena.reserve(n_tags, wx * n_rows);
  std::vector<double>& win_min = arena.mins;
  for (std::size_t b = 0; b < n_tags; ++b) {
    win_min[b] = std::numeric_limits<double>::infinity();
  }
  std::size_t slot = 0;
  for (std::size_t iz = z0; iz <= z1; ++iz) {
    for (std::size_t iy = y0; iy <= y1; ++iy) {
      const std::size_t row0 = (iz * ny + iy) * nx;
      for (std::size_t b = 0; b < n_tags; ++b) {
        arena.seg_outs[b] = arena.outs[b] + slot;
      }
      simd::factored_rss_run_batch(level, stats, n_tags, table.dist_t.data(),
                                   table.cell_stride, row0 + x0, row0 + x1 + 1,
                                   arena.seg_outs.data(),
                                   arena.seg_mins.data());
      for (std::size_t b = 0; b < n_tags; ++b) {
        win_min[b] =
            arena.seg_mins[b] < win_min[b] ? arena.seg_mins[b] : win_min[b];
      }
      slot += wx;
    }
  }

  for (std::size_t b = 0; b < n_tags; ++b) {
    if (!std::isfinite(win_min[b])) continue;
    // Packed slots run in canonical window order, so ascending candidate
    // slots preserve the canonical walk's first-strict-minimum tie-break.
    for (std::uint32_t i : margin_candidates(arena.outs[b], wx * n_rows,
                                             win_min[b] + margins[b], level)) {
      const std::size_t r = i / wx;
      const std::size_t ix = x0 + i % wx;
      const std::size_t iy = y0 + r % wy;
      const std::size_t iz = z0 + r / wy;
      const std::size_t cell = (iz * ny + iy) * nx + ix;
      const SlopeCost cost = cached_cell_cost(table, *snaps[b], cell);
      GridBest& best = bests[b];
      if (cost.rss < best.rss) {
        best.rss = cost.rss;
        best.kt = cost.kt;
        best.position = table.cell_position(cell);
        best.cell = cell;
        best.any = true;
      }
    }
  }
}

/// Window bounds as a grouping key: warm windows that coincide across
/// tags share one batched scan.
using WindowKey = std::array<std::size_t, 6>;

/// Per-workspace scratch of the batched entry points: snapshots and
/// selection arrays reused across batches.
struct BatchScratch {
  std::vector<RoundSnapshot> snaps;
  std::vector<simd::FactoredStats> stats;
  std::vector<double> margins;
  std::vector<std::uint8_t> done;
  std::vector<std::size_t> pending;
  /// Warm requests keyed by window, sorted so equal windows are adjacent.
  std::vector<std::pair<WindowKey, std::size_t>> warm;
  std::vector<const RoundSnapshot*> sel_snaps;
  std::vector<simd::FactoredStats> sel_stats;
  std::vector<double> sel_margins;
  std::vector<GridBest> bests;
  std::vector<GridBest> chunk_slots;
  std::vector<std::size_t> candidates;
};

/// Stage A2: Levenberg-Marquardt refinement of a Stage-A1 winner plus the
/// final PositionSolve assembly. Shared verbatim by the exhaustive and
/// warm-start paths so they differ only in which grid cells seed the
/// refinement.
PositionSolve refine_and_finish(const RoundSnapshot& snap,
                                const DeploymentGeometry& geometry,
                                const DisentangleConfig& config,
                                SolveWorkspace& ws, bool mode_3d,
                                const GridBest& best) {
  const Rect& region = geometry.working_region;
  PositionSolve solve;
  solve.position = best.position;
  solve.converged = true;
  double final_rss = best.rss;
  double final_kt = best.kt;

  if (config.refine) {
    const std::size_t n_params = mode_3d ? 3 : 2;
    std::vector<double>& initial = ws.vec(0, n_params);
    initial[0] = best.position.x;
    initial[1] = best.position.y;
    if (mode_3d) initial[2] = best.position.z;

    const auto residual_fn = [&](std::span<const double> params,
                                 std::span<double> residuals) {
      const Vec3 p{params[0], params[1],
                   mode_3d ? params[2] : geometry.tag_plane_z};
      double stack_dist[kMaxStackAntennas];
      std::vector<double> heap_dist;
      double* dist_to = stack_dist;
      if (snap.n > kMaxStackAntennas) {
        heap_dist.resize(snap.n);
        dist_to = heap_dist.data();
      }
      double acc = 0.0;
      for (std::size_t i = 0; i < snap.n; ++i) {
        dist_to[i] = distance(snap.position[i], p);
        acc += snap.slope[i] - kSlopePerMeter * dist_to[i];
      }
      const double kt = acc / static_cast<double>(snap.n);
      for (std::size_t i = 0; i < snap.n; ++i) {
        // Scale rad/Hz residuals into O(1) units (rad/Hz -> rad/GHz).
        residuals[i] =
            (snap.slope[i] - kSlopePerMeter * dist_to[i] - kt) * 1e9;
      }
    };

    LmOptions options;
    options.parameter_scales.assign(n_params, 0.05);  // meters
    const LmResult lm =
        levenberg_marquardt(residual_fn, initial, snap.n, options, ws);
    const Vec3 refined{lm.params[0], lm.params[1],
                       mode_3d ? lm.params[2] : geometry.tag_plane_z};
    // Keep the refinement only if it stayed in (a modest margin around)
    // the search region and actually improved. The refined cost is
    // computed once and reused for kt and the reported RMS.
    const Rect margin{{region.lo.x - 0.2, region.lo.y - 0.2},
                      {region.hi.x + 0.2, region.hi.y + 0.2}};
    if (margin.contains(refined.xy())) {
      const SlopeCost refined_cost = slope_cost(snap, refined);
      if (refined_cost.rss <= best.rss) {
        solve.position = refined;
        solve.converged = lm.converged;
        final_rss = refined_cost.rss;
        final_kt = refined_cost.kt;
      }
    }
  }

  solve.kt = final_kt;
  solve.rms = std::sqrt(final_rss / static_cast<double>(snap.n));
  return solve;
}

}  // namespace

double position_cost(const DeploymentGeometry& geometry,
                     std::span<const AntennaLine> lines, Vec3 p) {
  RoundSnapshot& snap =
      SolveWorkspace::for_this_thread().scratch<RoundSnapshot>();
  build_snapshot(geometry, lines, snap);
  require(snap.n > 0, "position_cost: no usable lines");
  return std::sqrt(slope_cost(snap, p).rss / static_cast<double>(snap.n));
}

double orientation_cost(const DeploymentGeometry& geometry,
                        std::span<const AntennaLine> lines, Vec3 tag_position,
                        Vec3 w) {
  RoundSnapshot& snap =
      SolveWorkspace::for_this_thread().scratch<RoundSnapshot>();
  build_snapshot(geometry, lines, snap);
  require(snap.n > 0, "orientation_cost: no usable lines");
  require(geometry.antenna_frames.size() == geometry.n_antennas(),
          "orientation_cost: geometry missing frames");
  fill_ray_frames(snap, tag_position);
  return std::sqrt(intercept_cost(snap, w).rss /
                   static_cast<double>(snap.n));
}

PositionSolve solve_position(const DeploymentGeometry& geometry,
                             std::span<const AntennaLine> lines,
                             const DisentangleConfig& config) {
  return solve_position(geometry, lines, config,
                        SolveWorkspace::for_this_thread());
}

PositionSolve solve_position(const DeploymentGeometry& geometry,
                             std::span<const AntennaLine> lines,
                             const DisentangleConfig& config,
                             SolveWorkspace& ws, ThreadPool* pool,
                             GridGeometryCache* cache, const Vec3* warm_hint) {
  GridGeometryCache& tables =
      cache != nullptr ? *cache : GridGeometryCache::shared();
  const std::shared_ptr<const GridTable> table = tables.acquire(
      geometry,
      GridSpec{config.grid_nx, config.grid_ny,
               std::max<std::size_t>(config.grid_nz, 1), config.z_lo,
               config.z_hi});
  const BatchedRankRequest request{lines, warm_hint};
  PositionSolve solve;
  std::uint8_t solved = 0;
  solve_position_batch(geometry, {&request, 1}, config, ws, pool, *table,
                       {&solve, 1}, {&solved, 1});
  require(solved != 0, "solve_position: not enough usable antenna lines");
  return solve;
}

void solve_position_batch(const DeploymentGeometry& geometry,
                          std::span<const BatchedRankRequest> requests,
                          const DisentangleConfig& config, SolveWorkspace& ws,
                          ThreadPool* pool, const GridTable& table,
                          std::span<PositionSolve> out,
                          std::span<std::uint8_t> solved) {
  require(out.size() == requests.size() && solved.size() == requests.size(),
          "solve_position_batch: output spans must match requests");
  require(table.n_antennas == geometry.n_antennas(),
          "solve_position_batch: table/geometry antenna count mismatch");
  require(config.grid_nx >= 2 && config.grid_ny >= 2,
          "solve_position_batch: grid too coarse");
  const std::size_t nz = std::max<std::size_t>(config.grid_nz, 1);
  require(table.spec.nx == config.grid_nx && table.spec.ny == config.grid_ny &&
              table.spec.nz == nz,
          "solve_position_batch: table/config grid mismatch");

  const bool mode_3d = config.grid_nz > 1;
  const std::size_t min_antennas = mode_3d ? 4 : 3;
  const std::size_t rows = nz * config.grid_ny;
  const std::size_t n = requests.size();
  const Rect& region = geometry.working_region;
  // AVX2 where cpuid offers it, the factored-scalar kernels otherwise
  // (RFP_FORCE_SCALAR, -DRFP_DISABLE_SIMD): same winners either way.
  const simd::Level level = simd::active();

  BatchScratch& scr = ws.scratch<BatchScratch>();
  if (scr.snaps.size() < n) scr.snaps.resize(n);
  scr.stats.resize(n);
  scr.margins.resize(n);
  scr.done.assign(n, 0);
  for (std::size_t b = 0; b < n; ++b) {
    RoundSnapshot& snap = scr.snaps[b];
    try {
      build_snapshot(geometry, requests[b].lines, snap);
      solved[b] = snap.n >= min_antennas ? 1 : 0;
    } catch (const Error&) {
      solved[b] = 0;  // a line names an unknown antenna
    }
    if (solved[b] == 0) {
      scr.done[b] = 1;
      continue;
    }
    scr.stats[b] = factored_stats(snap);
    scr.margins[b] = factored_margin(snap, table);
  }

  // ---- Stage A0: warm starts, grouped by identical hint windows --------
  if (config.warm_start.enable) {
    scr.warm.clear();
    const double w = config.warm_start.window_m;
    for (std::size_t b = 0; b < n; ++b) {
      if (scr.done[b] != 0 || requests[b].warm_hint == nullptr) continue;
      const Vec3 hint = *requests[b].warm_hint;
      std::size_t x0, x1, y0, y1, z0 = 0, z1 = 0;
      if (!axis_window(region.lo.x, region.width(), config.grid_nx, hint.x, w,
                       x0, x1) ||
          !axis_window(region.lo.y, region.height(), config.grid_ny, hint.y, w,
                       y0, y1)) {
        continue;  // hint missed the region: cold solve
      }
      if (mode_3d && !axis_window(config.z_lo, config.z_hi - config.z_lo, nz,
                                  hint.z, w, z0, z1)) {
        continue;
      }
      scr.warm.emplace_back(WindowKey{x0, x1, y0, y1, z0, z1}, b);
    }
    // Sorted in place so warm solves stay off the heap once the scratch is
    // warm; within a window, requests stay in input order.
    std::sort(scr.warm.begin(), scr.warm.end());
    for (std::size_t g = 0; g < scr.warm.size();) {
      const WindowKey& key = scr.warm[g].first;
      std::size_t g_end = g + 1;
      while (g_end < scr.warm.size() && scr.warm[g_end].first == key) ++g_end;
      const std::size_t n_members = g_end - g;
      scr.sel_snaps.clear();
      scr.sel_stats.clear();
      scr.sel_margins.clear();
      for (std::size_t j = g; j < g_end; ++j) {
        const std::size_t b = scr.warm[j].second;
        scr.sel_snaps.push_back(&scr.snaps[b]);
        scr.sel_stats.push_back(scr.stats[b]);
        scr.sel_margins.push_back(scr.margins[b]);
      }
      scr.bests.assign(n_members, GridBest{});
      window_scan_factored_batch(scr.sel_snaps.data(), scr.sel_stats.data(),
                                 scr.sel_margins.data(), n_members, table,
                                 level, key[0], key[1], key[2], key[3], key[4],
                                 key[5], scr.bests.data());
      const std::size_t window_cells = (key[1] - key[0] + 1) *
                                       (key[3] - key[2] + 1) *
                                       (key[5] - key[4] + 1);
      for (std::size_t j = 0; j < n_members; ++j) {
        const std::size_t b = scr.warm[g + j].second;
        const GridBest& windowed = scr.bests[j];
        if (!windowed.any || !std::isfinite(windowed.rss)) continue;
        PositionSolve warm = refine_and_finish(scr.snaps[b], geometry, config,
                                               ws, mode_3d, windowed);
        if (warm.rms <= config.warm_start.max_rms) {
          warm.path = SolvePath::kWarmStart;
          warm.cells_scanned = window_cells;
          out[b] = warm;
          scr.done[b] = 1;
        }
        // Otherwise fall through to the cold pass, byte-identical to the
        // hint-less solve.
      }
      g = g_end;
    }
  }

  // ---- Stage A1: one shared pass ranks every cold tag ------------------
  scr.pending.clear();
  for (std::size_t b = 0; b < n; ++b) {
    if (scr.done[b] == 0) scr.pending.push_back(b);
  }
  if (scr.pending.empty()) return;
  const std::size_t n_pending = scr.pending.size();
  scr.sel_snaps.clear();
  scr.sel_stats.clear();
  scr.sel_margins.clear();
  for (std::size_t b : scr.pending) {
    scr.sel_snaps.push_back(&scr.snaps[b]);
    scr.sel_stats.push_back(scr.stats[b]);
    scr.sel_margins.push_back(scr.margins[b]);
  }
  scr.bests.assign(n_pending, GridBest{});

  if (pool != nullptr && pool->size() > 1) {
    // Rows fan out over the pool by chunks; per-(chunk, tag) bests are
    // reduced strict-< in chunk order per tag, so the winner matches the
    // sequential pass exactly for any pool size.
    const std::size_t chunk =
        std::max<std::size_t>(1, rows / (4 * pool->size()));
    const std::size_t n_chunks = (rows + chunk - 1) / chunk;
    scr.chunk_slots.assign(n_chunks * n_pending, GridBest{});
    pool->parallel_for(
        rows, chunk, [&](std::size_t begin, std::size_t end, std::size_t) {
          scan_grid_rows_factored_batch(
              scr.sel_snaps.data(), scr.sel_stats.data(),
              scr.sel_margins.data(), n_pending, table, level, begin, end,
              scr.chunk_slots.data() + (begin / chunk) * n_pending);
        });
    for (std::size_t c = 0; c < n_chunks; ++c) {
      for (std::size_t p = 0; p < n_pending; ++p) {
        const GridBest& slot = scr.chunk_slots[c * n_pending + p];
        if (slot.any && slot.rss < scr.bests[p].rss) scr.bests[p] = slot;
      }
    }
  } else {
    scan_grid_rows_factored_batch(scr.sel_snaps.data(), scr.sel_stats.data(),
                                  scr.sel_margins.data(), n_pending, table,
                                  level, 0, rows, scr.bests.data());
  }

  for (std::size_t p = 0; p < n_pending; ++p) {
    const std::size_t b = scr.pending[p];
    GridBest best = scr.bests[p];
    if (!best.any || !std::isfinite(best.rss)) {
      // Pathological (all costs NaN/inf): fall back to the region center,
      // like the pre-snapshot implementation's initial candidate.
      best.position = Vec3{region.center().x, region.center().y,
                           geometry.tag_plane_z};
      const SlopeCost cost = slope_cost(scr.snaps[b], best.position);
      best.kt = cost.kt;
      best.rss = cost.rss;
    }
    PositionSolve solve =
        refine_and_finish(scr.snaps[b], geometry, config, ws, mode_3d, best);
    solve.path = SolvePath::kExhaustive;
    solve.cells_scanned = rows * config.grid_nx;
    out[b] = solve;
  }
}

void rank_exhaustive_batch(const DeploymentGeometry& geometry,
                           std::span<const BatchedRankRequest> requests,
                           const GridTable& table, SolveWorkspace& ws,
                           std::span<StageARank> out, simd::Level level) {
  require(out.size() == requests.size(),
          "rank_exhaustive_batch: output span must match requests");
  require(table.n_antennas == geometry.n_antennas(),
          "rank_exhaustive: table/geometry antenna count mismatch");
  const std::size_t n = requests.size();
  const std::size_t rows = table.spec.nz * table.spec.ny;
  BatchScratch& scr = ws.scratch<BatchScratch>();
  if (scr.snaps.size() < n) scr.snaps.resize(n);
  scr.sel_snaps.clear();
  scr.sel_stats.clear();
  scr.sel_margins.clear();
  for (std::size_t b = 0; b < n; ++b) {
    build_snapshot(geometry, requests[b].lines, scr.snaps[b]);
    require(scr.snaps[b].n >= 3,
            "rank_exhaustive: not enough usable antenna lines");
    scr.sel_snaps.push_back(&scr.snaps[b]);
    scr.sel_stats.push_back(factored_stats(scr.snaps[b]));
    scr.sel_margins.push_back(factored_margin(scr.snaps[b], table));
  }
  scr.bests.assign(n, GridBest{});
  scr.candidates.assign(n, 0);
  scan_grid_rows_factored_batch(scr.sel_snaps.data(), scr.sel_stats.data(),
                                scr.sel_margins.data(), n, table, level, 0,
                                rows, scr.bests.data(), scr.candidates.data());
  for (std::size_t b = 0; b < n; ++b) {
    require(scr.bests[b].any, "rank_exhaustive: no finite cell cost");
    out[b] = StageARank{scr.bests[b].cell, scr.bests[b].rss, scr.bests[b].kt,
                        scr.candidates[b]};
  }
}

StageARank rank_exhaustive(const DeploymentGeometry& geometry,
                           std::span<const AntennaLine> lines,
                           const GridTable& table, SolveWorkspace& ws,
                           simd::Level level) {
  const BatchedRankRequest request{lines, nullptr};
  StageARank out;
  rank_exhaustive_batch(geometry, {&request, 1}, table, ws, {&out, 1}, level);
  return out;
}

StageARank rank_canonical(const DeploymentGeometry& geometry,
                          std::span<const AntennaLine> lines,
                          const GridTable& table, SolveWorkspace& ws) {
  require(table.n_antennas == geometry.n_antennas(),
          "rank_canonical: table/geometry antenna count mismatch");
  RoundSnapshot& snap = ws.scratch<RoundSnapshot>();
  build_snapshot(geometry, lines, snap);
  require(snap.n >= 3, "rank_canonical: not enough usable antenna lines");

  StageARank out;
  out.rss = std::numeric_limits<double>::infinity();
  out.candidates = table.n_cells();
  bool any = false;
  for (std::size_t cell = 0; cell < table.n_cells(); ++cell) {
    const SlopeCost cost = cached_cell_cost(table, snap, cell);
    if (cost.rss < out.rss) {
      out.rss = cost.rss;
      out.kt = cost.kt;
      out.cell = cell;
      any = true;
    }
  }
  require(any, "rank_canonical: no finite cell cost");
  return out;
}

OrientationSolve solve_orientation(const DeploymentGeometry& geometry,
                                   std::span<const AntennaLine> lines,
                                   Vec3 tag_position,
                                   const DisentangleConfig& config) {
  return solve_orientation(geometry, lines, tag_position, config,
                           SolveWorkspace::for_this_thread());
}

OrientationSolve solve_orientation(const DeploymentGeometry& geometry,
                                   std::span<const AntennaLine> lines,
                                   Vec3 tag_position,
                                   const DisentangleConfig& config,
                                   SolveWorkspace& ws) {
  require(geometry.antenna_frames.size() == geometry.n_antennas(),
          "solve_orientation: geometry missing frames");
  RoundSnapshot& snap = ws.scratch<RoundSnapshot>();
  build_snapshot(geometry, lines, snap);
  require(snap.n >= 3, "solve_orientation: need >= 3 usable lines");
  require(config.orientation_scan_steps >= 8,
          "solve_orientation: scan too coarse");
  const bool mode_3d = config.grid_nz > 1;
  fill_ray_frames(snap, tag_position);

  OrientationSolve best;
  double best_rss = std::numeric_limits<double>::infinity();

  const std::size_t az_steps = config.orientation_scan_steps;
  // theta_orient has period pi in the polarization angle (w ~ -w), so a
  // half-turn of azimuth covers everything in 2D.
  for (std::size_t ia = 0; ia < az_steps; ++ia) {
    const double alpha =
        kPi * static_cast<double>(ia) / static_cast<double>(az_steps);
    if (!mode_3d) {
      const Vec3 w = planar_polarization(alpha);
      const InterceptCost c = intercept_cost(snap, w);
      if (c.rss < best_rss) {
        best_rss = c.rss;
        best.alpha = alpha;
        best.polarization = w;
        best.bt = c.bt;
      }
    } else {
      const std::size_t el_steps = std::max<std::size_t>(az_steps / 2, 4);
      for (std::size_t ie = 0; ie < el_steps; ++ie) {
        const double elevation =
            -kPi / 2.0 + kPi * static_cast<double>(ie) /
                             static_cast<double>(el_steps - 1);
        const Vec3 w = spherical_polarization(alpha, elevation);
        const InterceptCost c = intercept_cost(snap, w);
        if (c.rss < best_rss) {
          best_rss = c.rss;
          best.alpha = alpha;
          best.polarization = w;
          best.bt = c.bt;
        }
      }
    }
  }

  // Local golden-section style refinement around the best scan cell (2D
  // only; the 3D scan is already dense enough for the grid resolution).
  // Stops once the bracket is narrower than the configured tolerance —
  // the fixed 40 iterations shrink a ~4e-3 rad bracket by 0.618^40 ≈
  // 4e-9, far below any physical orientation accuracy.
  if (!mode_3d) {
    double lo = best.alpha - kPi / static_cast<double>(az_steps);
    double hi = best.alpha + kPi / static_cast<double>(az_steps);
    for (int iter = 0; iter < 40; ++iter) {
      if (config.orientation_refine_tol_rad > 0.0 &&
          hi - lo <= config.orientation_refine_tol_rad) {
        break;
      }
      const double m1 = lo + (hi - lo) * 0.382;
      const double m2 = lo + (hi - lo) * 0.618;
      const double c1 = intercept_cost(snap, planar_polarization(m1)).rss;
      const double c2 = intercept_cost(snap, planar_polarization(m2)).rss;
      if (c1 < c2) {
        hi = m2;
      } else {
        lo = m1;
      }
    }
    const double alpha = wrap_to_2pi((lo + hi) / 2.0);
    best.alpha = alpha >= kPi ? alpha - kPi : alpha;
    best.polarization = planar_polarization(best.alpha);
    const InterceptCost c = intercept_cost(snap, best.polarization);
    best.bt = c.bt;
    best_rss = c.rss;
  }

  best.rms = std::sqrt(best_rss / static_cast<double>(snap.n));
  return best;
}

}  // namespace rfp
