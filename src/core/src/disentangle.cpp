#include "rfp/core/disentangle.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "rfp/common/angles.hpp"
#include "rfp/common/constants.hpp"
#include "rfp/common/error.hpp"
#include "rfp/core/grid_cache.hpp"
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
}

/// Stage B golden-section refinement stops once the bracket is narrower
/// than this [rad], well below any physical orientation accuracy.
constexpr double kOrientationRefineTolRad = 1e-6;

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
/// contiguous loads. The Stage-A ranking: every grid cell is scored here.
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
  bool any = false;
};

/// Canonical scan of the contiguous cells [cell_begin, cell_end), folded
/// strict-< into `best`: visited in scan order, so `best` ends on the
/// first strict minimum, exactly as rank_canonical's walk. NaN costs never
/// win, so an all-NaN (poisoned) round leaves `best.any` false.
void scan_cells(const RoundSnapshot& snap, const GridTable& table,
                std::size_t cell_begin, std::size_t cell_end,
                GridBest& best) {
  for (std::size_t cell = cell_begin; cell < cell_end; ++cell) {
    const SlopeCost cost = cached_cell_cost(table, snap, cell);
    if (cost.rss < best.rss) {
      best.rss = cost.rss;
      best.kt = cost.kt;
      best.position = table.cell_position(cell);
      best.any = true;
    }
  }
}

/// Stage A2: Levenberg-Marquardt refinement of the grid scan's winner
/// plus the final PositionSolve assembly.
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
                             GridGeometryCache* cache) {
  GridGeometryCache& tables =
      cache != nullptr ? *cache : GridGeometryCache::shared();
  const std::shared_ptr<const GridTable> table = tables.acquire(
      geometry,
      GridSpec{config.grid_nx, config.grid_ny,
               std::max<std::size_t>(config.grid_nz, 1), config.z_lo,
               config.z_hi});
  const std::optional<PositionSolve> solve =
      try_solve_position(geometry, lines, config, ws, pool, *table);
  require(solve.has_value(), "solve_position: not enough usable antenna lines");
  return *solve;
}

std::optional<PositionSolve> try_solve_position(
    const DeploymentGeometry& geometry, std::span<const AntennaLine> lines,
    const DisentangleConfig& config, SolveWorkspace& ws, ThreadPool* pool,
    const GridTable& table) {
  require(table.n_antennas == geometry.n_antennas(),
          "try_solve_position: table/geometry antenna count mismatch");
  const std::size_t nz = std::max<std::size_t>(config.grid_nz, 1);
  require(table.spec.nx == config.grid_nx && table.spec.ny == config.grid_ny &&
              table.spec.nz == nz,
          "try_solve_position: table/config grid mismatch");

  const bool mode_3d = config.grid_nz > 1;
  RoundSnapshot& snap = ws.scratch<RoundSnapshot>();
  try {
    build_snapshot(geometry, lines, snap);
  } catch (const Error&) {
    return std::nullopt;  // a line names an unknown antenna
  }
  if (snap.n < (mode_3d ? 4u : 3u)) return std::nullopt;

  // ---- Stage A1: the canonical scan of every cell ------------------------
  const std::size_t nx = config.grid_nx;
  const std::size_t rows = nz * config.grid_ny;
  GridBest best;
  if (pool != nullptr && pool->size() > 1 &&
      pool->worker_index() == ThreadPool::npos) {
    // Rows fan out over the pool by chunks; the chunk winners are reduced
    // strict-< in chunk order, so the winner matches the sequential scan
    // exactly for any pool size. (On one of the pool's own workers the
    // chunks would only run inline, so the plain scan below runs instead.)
    const std::size_t chunk =
        std::max<std::size_t>(1, rows / (4 * pool->size()));
    std::vector<GridBest>& chunk_bests = ws.scratch<std::vector<GridBest>>();
    chunk_bests.assign((rows + chunk - 1) / chunk, GridBest{});
    pool->parallel_for(
        rows, chunk, [&](std::size_t begin, std::size_t end, std::size_t) {
          scan_cells(snap, table, begin * nx, end * nx,
                     chunk_bests[begin / chunk]);
        });
    for (const GridBest& chunk_best : chunk_bests) {
      if (chunk_best.any && chunk_best.rss < best.rss) best = chunk_best;
    }
  } else {
    scan_cells(snap, table, 0, rows * nx, best);
  }

  if (!best.any || !std::isfinite(best.rss)) {
    // Pathological (all costs NaN/inf): fall back to the region center,
    // like the pre-snapshot implementation's initial candidate.
    const Vec2 center = geometry.working_region.center();
    best.position = Vec3{center.x, center.y, geometry.tag_plane_z};
    const SlopeCost cost = slope_cost(snap, best.position);
    best.kt = cost.kt;
    best.rss = cost.rss;
  }
  PositionSolve solve =
      refine_and_finish(snap, geometry, config, ws, mode_3d, best);
  solve.cells_scanned = rows * nx;
  return solve;
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
  // Stops once the bracket is narrower than kOrientationRefineTolRad, or
  // after 40 iterations (0.618^40 ≈ 4e-9 of the initial bracket).
  if (!mode_3d) {
    double lo = best.alpha - kPi / static_cast<double>(az_steps);
    double hi = best.alpha + kPi / static_cast<double>(az_steps);
    for (int iter = 0; iter < 40 && hi - lo > kOrientationRefineTolRad;
         ++iter) {
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
