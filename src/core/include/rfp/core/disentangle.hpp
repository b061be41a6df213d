#pragma once

#include <cstdint>

#include "rfp/common/thread_pool.hpp"
#include "rfp/common/workspace.hpp"
#include "rfp/core/drift.hpp"
#include "rfp/core/types.hpp"
#include "rfp/simd/dispatch.hpp"

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

  /// Stage B golden-section refinement stops once the bracket is narrower
  /// than this [rad] (well below any physical orientation accuracy).
  /// <= 0 restores the legacy fixed 40 iterations.
  double orientation_refine_tol_rad = 1e-6;

  /// Warm start: when the caller passes a position hint (solve_position's
  /// `warm_hint`, RfPrism::sense_warm, StreamingConfig::enable_warm_start),
  /// scan only a local window around the hint and LM-refine. Falls back to
  /// the full grid — byte-identical to the cold solve — whenever the
  /// windowed solve's refined RMS exceeds `max_rms` or the hint misses the
  /// working region.
  struct WarmStart {
    bool enable = true;      ///< honor hints when provided
    double window_m = 0.25;  ///< half-width of the hint window [m]
    double max_rms = 2e-9;   ///< fallback threshold on refined RMS [rad/Hz]
  };
  WarmStart warm_start;

  /// Online drift self-calibration (drift.hpp): when enabled, owners of a
  /// DriftEstimator (SensingEngine, StreamingSensor, rfpd) subtract its
  /// per-antenna corrections from the calibrated lines before the solve
  /// and feed every valid result back in. Off by default — and when off,
  /// every pipeline output is byte-identical to the drift-free build.
  DriftConfig drift;
};

/// Which Stage-A search produced a PositionSolve.
enum class SolvePath {
  kExhaustive,  ///< full grid scan
  kWarmStart,   ///< hint-windowed scan (did not fall back)
};

/// Stage A output: position and material slope from the slope equations.
struct PositionSolve {
  Vec3 position;
  double kt = 0.0;       ///< common-mode slope left after propagation [rad/Hz]
  double rms = 0.0;      ///< RMS slope residual [rad/Hz]
  bool converged = false;
  SolvePath path = SolvePath::kExhaustive;  ///< which Stage-A search ran
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

/// Workspace-taking overload: a one-request solve_position_batch over the
/// cached distance table, so the single-round and batched solves share one
/// Stage-A path. All scratch (the flattened SoA snapshot of the usable
/// lines, LM buffers) lives in `ws`, so repeated solves on a warmed-up
/// workspace do no heap allocation in the grid scan or the refinement
/// iterations. With a non-null `pool` the grid scan is fanned out over the
/// pool by row chunks; results are bit-identical for any pool size.
///
/// The table comes from `cache`, or from GridGeometryCache::shared() when
/// `cache` is null. With a non-null `warm_hint` (and
/// config.warm_start.enable) the solve first tries a local window around
/// the hint and falls back to the full grid when the refined RMS exceeds
/// config.warm_start.max_rms.
PositionSolve solve_position(const DeploymentGeometry& geometry,
                             std::span<const AntennaLine> lines,
                             const DisentangleConfig& config,
                             SolveWorkspace& ws, ThreadPool* pool = nullptr,
                             GridGeometryCache* cache = nullptr,
                             const Vec3* warm_hint = nullptr);

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

/// One round's Stage-A input in a tag-batched solve: the usable lines of
/// a round sharing the batch's deployment, plus an optional warm-start
/// hint (same semantics as solve_position's `warm_hint`).
struct BatchedRankRequest {
  std::span<const AntennaLine> lines;
  const Vec3* warm_hint = nullptr;
};

/// The Stage-A position solve (DESIGN.md "Solver acceleration"): every
/// position solve in the library, single-round ones included, runs here.
/// Cold rounds are ranked tag-major per shared pass over the pre-acquired
/// distance table (the batched rfp::simd kernels visit each table row
/// once for the whole batch), warm windows batch whenever requests land
/// on identical windows, and each winner seeds its own LM refinement.
/// `out[i]` depends only on requests[i], never on the rest of the batch,
/// the dispatch level or the pool size.
///
/// `solved[i]` is set to 1 when out[i] holds a solve and 0 when the round
/// cannot be solved (too few usable lines, a line naming an unknown
/// antenna); the batch never throws per request. Requires matching spans
/// and a table built for this geometry/config — InvalidArgument
/// otherwise.
void solve_position_batch(const DeploymentGeometry& geometry,
                          std::span<const BatchedRankRequest> requests,
                          const DisentangleConfig& config, SolveWorkspace& ws,
                          ThreadPool* pool, const GridTable& table,
                          std::span<PositionSolve> out,
                          std::span<std::uint8_t> solved);

/// One exhaustive Stage-A *ranking* pass over a cached distance table:
/// the winning cell with its canonical two-pass cost. Benchmark/diagnostic
/// hook (bench_solver, the ranking property tests).
struct StageARank {
  std::size_t cell = 0;  ///< winning cell (canonical strict-< argmin)
  double rss = 0.0;      ///< canonical two-pass rss at the winner
  double kt = 0.0;       ///< canonical closed-form kt at the winner
  /// Cells re-scored canonically: the factored ranking's margin
  /// candidates, or n_cells() for rank_canonical, which scores everything.
  std::size_t candidates = 0;
};

/// Rank every cell of `table` through the production ranking — the
/// antenna-factored kernels at `level`, then a canonical re-score of
/// every cell within a conservative rounding margin of the factored
/// minimum — as a one-request rank_exhaustive_batch. The winner is the
/// canonical scan's strict-< scan-order argmin (see rank_canonical).
/// Throws InvalidArgument on fewer than 3 usable lines, a table/geometry
/// antenna-count mismatch, or no finite cell cost.
StageARank rank_exhaustive(const DeploymentGeometry& geometry,
                           std::span<const AntennaLine> lines,
                           const GridTable& table, SolveWorkspace& ws,
                           simd::Level level = simd::active());

/// Tag-batched rank_exhaustive: one shared pass over `table` ranks every
/// request (bench_solver's batch dimension). out[i].cell/rss/kt are
/// byte-identical to rank_exhaustive on requests[i].lines alone;
/// out[i].candidates may be larger (the shared pass re-scores margin
/// candidates against per-pass minima, a superset of the single-tag
/// candidate set — the canonical argmin is provably inside both). Throws
/// like rank_exhaustive on any invalid request; warm hints are ignored.
void rank_exhaustive_batch(const DeploymentGeometry& geometry,
                           std::span<const BatchedRankRequest> requests,
                           const GridTable& table, SolveWorkspace& ws,
                           std::span<StageARank> out,
                           simd::Level level = simd::active());

/// The canonical two-pass kernel at every cell, in scan order with a
/// strict-< argmin — the reference the production ranking must reproduce
/// bit for bit. Test/bench oracle only; throws like rank_exhaustive.
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
