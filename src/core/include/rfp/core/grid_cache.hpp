#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <shared_mutex>
#include <unordered_map>
#include <vector>

#include "rfp/core/types.hpp"

/// \file grid_cache.hpp
/// Geometry-cached acceleration of the Stage-A grid scan (DESIGN.md
/// "Solver acceleration"). The disentangling solver localizes a tag by
/// scanning a dense grid over the working region — but the geometry it
/// scans (antenna positions, grid cells) is fixed per deployment, while
/// the slope data changes per solve. The per-cell propagation term
/// distance(antenna, cell) is therefore tag-independent: GridGeometryCache
/// builds the flattened [cell x antenna] distance table once per
/// (geometry, grid) pair and shares it read-only across every pool worker
/// and every solve, turning the scan's inner loop from two sqrt walks into
/// pure multiply-add over contiguous doubles.

namespace rfp {

/// Canonical Stage-A axis coordinate of grid index `i` on an axis with
/// `n` samples spanning [lo, lo + extent]: the one expression every cell
/// position in a GridTable is built from.
inline double grid_axis_coord(double lo, double extent, std::size_t i,
                              std::size_t n) {
  return lo + extent * static_cast<double>(i) / static_cast<double>(n - 1);
}

/// Grid shape of one Stage-A scan: the half of the cache key that comes
/// from DisentangleConfig (the other half is the deployment geometry).
struct GridSpec {
  std::size_t nx = 0;
  std::size_t ny = 0;
  std::size_t nz = 1;  ///< 1 = planar 2D at the geometry's tag_plane_z
  double z_lo = 0.0;   ///< z range in 3D mode (ignored when nz == 1)
  double z_hi = 0.0;

  bool mode_3d() const { return nz > 1; }
};

/// One immutable cache entry: per-axis cell coordinates plus the flattened
/// distance table, and the exact key material it was built from (used to
/// verify hash-bucket matches, never trusting the digest alone).
struct GridTable {
  GridSpec spec;
  std::size_t n_antennas = 0;

  /// Per-axis cell coordinates (xs[nx], ys[ny], zs[nz]); in 2D mode zs
  /// holds the single tag_plane_z value.
  std::vector<double> xs, ys, zs;

  /// distance(antenna_positions[a], cell_position(cell)) flattened as
  /// [cell * n_antennas + a], cells in canonical (iz, iy, ix) order.
  std::vector<double> dist;

  // -- Key material (what the table is a pure function of) --------------
  std::vector<Vec3> antenna_positions;
  Rect region;
  double tag_plane_z = 0.0;

  std::size_t n_cells() const { return spec.nx * spec.ny * spec.nz; }

  Vec3 cell_position(std::size_t cell) const {
    const std::size_t ix = cell % spec.nx;
    const std::size_t iy = (cell / spec.nx) % spec.ny;
    const std::size_t iz = cell / (spec.nx * spec.ny);
    return {xs[ix], ys[iy], zs[iz]};
  }

  /// Heap footprint of the coordinate + distance arrays.
  std::size_t bytes() const;
};

/// Thread-safe cache of GridTables keyed on (geometry digest x grid spec).
///
/// Concurrency: lookups take a shared lock; a miss builds the table
/// outside any lock and inserts under a unique lock with a re-check, so
/// concurrent first-builds from many workers are safe and every caller
/// ends up sharing the single winning table (losing builds are discarded).
/// Entries are immutable once published — readers never lock again after
/// acquire() returns.
///
/// Keying: the table depends on antenna positions, the working region,
/// the tag plane (2D) or z range (3D), and the grid shape — and nothing
/// else. Antenna frames deliberately do not invalidate it (the distance
/// table does not depend on them), and in 2D mode z_lo/z_hi are ignored.
/// Digest collisions are handled by verifying the stored key material, so
/// a geometry change always misses even if two digests collide.
///
/// Capacity: bounded FIFO — at `max_entries` the oldest entry is dropped
/// from the index (in-flight users keep their shared_ptr alive).
class GridGeometryCache {
 public:
  explicit GridGeometryCache(std::size_t max_entries = 32);

  GridGeometryCache(const GridGeometryCache&) = delete;
  GridGeometryCache& operator=(const GridGeometryCache&) = delete;

  /// The table for (geometry, spec): built on first use, shared
  /// afterwards. Throws InvalidArgument on a degenerate grid (axis counts
  /// < 2 in x/y) or an empty geometry.
  std::shared_ptr<const GridTable> acquire(const DeploymentGeometry& geometry,
                                           const GridSpec& spec);

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t builds = 0;     ///< tables built (>= distinct entries;
                                  ///< concurrent first-builds may lose races)
    std::uint64_t evictions = 0;  ///< entries dropped at capacity
    std::size_t entries = 0;
    std::size_t bytes = 0;        ///< resident table bytes
  };
  Stats stats() const;

  /// Drop every entry (in-flight shared_ptrs stay valid) and reset stats.
  void clear();

  std::size_t max_entries() const { return max_entries_; }

  /// Process-wide cache every sense path acquires its tables from.
  static GridGeometryCache& shared();

 private:
  static std::uint64_t digest(const DeploymentGeometry& geometry,
                              const GridSpec& spec);
  static bool matches(const GridTable& table,
                      const DeploymentGeometry& geometry,
                      const GridSpec& spec);

  mutable std::shared_mutex mutex_;
  std::unordered_map<std::uint64_t,
                     std::vector<std::shared_ptr<const GridTable>>>
      buckets_;
  std::deque<std::pair<std::uint64_t, std::shared_ptr<const GridTable>>>
      order_;  ///< insertion order, for FIFO eviction
  std::size_t max_entries_;

  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> builds_{0};
  std::atomic<std::uint64_t> evictions_{0};
};

}  // namespace rfp
