#pragma once

#include <optional>

#include "rfp/common/thread_pool.hpp"
#include "rfp/common/workspace.hpp"
#include "rfp/core/drift.hpp"
#include "rfp/core/types.hpp"

/// \file disentangle.hpp
/// The phase-disentangling solver (paper §IV): turns the per-antenna
/// (slope, intercept) pairs of Eq. 6 into the five (2D) or seven (3D)
/// physical unknowns of Eq. 7:
///
///   k_i = 4*pi*dist(A_i, p)/c + kt
///   b_i = theta_orient(A_i, w) + bt   (mod 2*pi)
///
/// The two equation families are *independent*: the slope family contains
/// the position and the material slope; the intercept family contains the
/// orientation and the material intercept. RF-Prism exploits this by
/// solving them in two stages — which is also why its localization needs
/// no calibration (kt is solved, not assumed) and why its orientation
/// estimate is immune to ranging error (the intercepts never reference
/// distance).

namespace rfp {

class GridGeometryCache;
struct GridTable;

struct DisentangleConfig {
  /// Stage A multi-start grid resolution over the working region.
  std::size_t grid_nx = 41;
  std::size_t grid_ny = 41;

  /// 3D mode: number of z layers (1 = planar 2D sensing at tag_plane_z).
  std::size_t grid_nz = 1;
  double z_lo = 0.0;  ///< z search range in 3D mode
  double z_hi = 1.5;

  /// Levenberg-Marquardt refinement of the grid optimum.
  bool refine = true;

  /// Stage B orientation scan steps over alpha in [0, pi) (2D) or per
  /// azimuth turn (3D; elevation uses half as many over [-pi/2, pi/2]).
  std::size_t orientation_scan_steps = 720;

  /// Online drift self-calibration (drift.hpp): when enabled, the RfPrism
  /// owns a DriftEstimator, subtracts its per-antenna corrections from the
  /// calibrated lines before the solve, and its callers (StreamingSensor,
  /// rfpd) feed every result back in. Off by default — and when off,
  /// every pipeline output is byte-identical to the drift-free build.
  DriftConfig drift;
};

/// Stage A output: position and material slope from the slope equations.
struct PositionSolve {
  Vec3 position;
  double kt = 0.0;       ///< common-mode slope left after propagation [rad/Hz]
  double rms = 0.0;      ///< RMS slope residual [rad/Hz]
  bool converged = false;
  std::size_t cells_scanned = 0;  ///< Stage-A cost evaluations performed
};

/// Stage B output: orientation and material intercept from the intercept
/// equations.
struct OrientationSolve {
  double alpha = 0.0;      ///< planar angle in [0, pi) (2D mode)
  Vec3 polarization{1, 0, 0};
  double bt = 0.0;         ///< material intercept, wrapped to [0, 2*pi)
  double rms = 0.0;        ///< RMS wrapped intercept residual [rad]
};

/// Solve position + kt from per-antenna slopes. Requires >= 3 usable lines
/// in 2D mode (grid_nz == 1) and >= 4 in 3D mode, and a grid of at least
/// 2x2; throws InvalidArgument otherwise. Grid search over the working
/// region seeds an LM refinement; kt is eliminated in closed form at every
/// candidate (it enters the equations linearly).
PositionSolve solve_position(const DeploymentGeometry& geometry,
                             std::span<const AntennaLine> lines,
                             const DisentangleConfig& config);

/// Workspace-taking overload: try_solve_position over the table from
/// `cache`, or from GridGeometryCache::shared() when `cache` is null.
/// Throws InvalidArgument where try_solve_position returns nullopt.
PositionSolve solve_position(const DeploymentGeometry& geometry,
                             std::span<const AntennaLine> lines,
                             const DisentangleConfig& config,
                             SolveWorkspace& ws, ThreadPool* pool = nullptr,
                             GridGeometryCache* cache = nullptr);

/// The Stage-A position solve (DESIGN.md "Solver acceleration"): every
/// position solve in the library runs here, one round at a time. Every
/// cell of the pre-acquired distance table is scored with the canonical
/// two-pass cost in scan order with a strict-< argmin, and the winner
/// seeds an LM refinement. Called from outside a non-null `pool`, the
/// scan fans out over it by row chunks whose winners are reduced strict-<
/// in chunk order, so the result is bit-identical for any pool size. All
/// scratch (the flattened SoA snapshot of the usable lines, LM buffers)
/// lives in `ws`, so repeated solves on a warmed-up workspace do no heap
/// allocation in the grid scan or the refinement iterations.
///
/// Returns nullopt when the round cannot be solved: too few usable lines
/// (3 in 2D mode, 4 in 3D mode) or a line naming an unknown antenna.
/// Throws InvalidArgument on a table built for another geometry or grid.
std::optional<PositionSolve> try_solve_position(
    const DeploymentGeometry& geometry, std::span<const AntennaLine> lines,
    const DisentangleConfig& config, SolveWorkspace& ws, ThreadPool* pool,
    const GridTable& table);

/// Solve orientation + bt from per-antenna intercepts, given the Stage-A
/// position estimate (the polarization coupling happens transverse to each
/// antenna->tag ray, so the model needs the ray directions; their
/// sensitivity to position error is tiny — degrees of ray per tens of cm).
/// In 2D mode the polarization is constrained to the tag plane; in 3D mode
/// azimuth and elevation are both scanned. Requires >= 3 usable lines.
OrientationSolve solve_orientation(const DeploymentGeometry& geometry,
                                   std::span<const AntennaLine> lines,
                                   Vec3 tag_position,
                                   const DisentangleConfig& config);

/// Workspace-taking overload of solve_orientation (allocation-free at
/// steady state, same results as the plain overload).
OrientationSolve solve_orientation(const DeploymentGeometry& geometry,
                                   std::span<const AntennaLine> lines,
                                   Vec3 tag_position,
                                   const DisentangleConfig& config,
                                   SolveWorkspace& ws);

/// One exhaustive Stage-A ranking pass over a cached distance table: the
/// winning cell with its canonical two-pass cost.
struct StageARank {
  std::size_t cell = 0;  ///< winning cell (canonical strict-< argmin)
  double rss = 0.0;      ///< canonical two-pass rss at the winner
  double kt = 0.0;       ///< canonical closed-form kt at the winner
};

/// The canonical two-pass cost at every cell, in scan order with a
/// strict-< argmin: the reference an unrefined try_solve_position must
/// reproduce bit for bit, whatever the pool. Test oracle only.
/// Throws InvalidArgument on fewer than 3 usable lines, a table/geometry
/// antenna-count mismatch, or no finite cell cost.
StageARank rank_canonical(const DeploymentGeometry& geometry,
                          std::span<const AntennaLine> lines,
                          const GridTable& table, SolveWorkspace& ws);

/// Slope-equation RMS residual at a given position (diagnostic; also the
/// Stage A cost function). kt is the closed-form optimum at `p`.
double position_cost(const DeploymentGeometry& geometry,
                     std::span<const AntennaLine> lines, Vec3 p);

/// Intercept-equation RMS residual at a given polarization (diagnostic;
/// Stage B cost). bt is the closed-form circular-mean optimum at `w`.
double orientation_cost(const DeploymentGeometry& geometry,
                        std::span<const AntennaLine> lines, Vec3 tag_position,
                        Vec3 w);

}  // namespace rfp
