#include "rfp/core/grid_cache.hpp"

#include <bit>
#include <mutex>

#include "rfp/common/error.hpp"
#include "rfp/geom/vec.hpp"

namespace rfp {

namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

void mix_u64(std::uint64_t& h, std::uint64_t v) {
  for (int shift = 0; shift < 64; shift += 8) {
    h ^= (v >> shift) & 0xffULL;
    h *= kFnvPrime;
  }
}

void mix_double(std::uint64_t& h, double v) {
  mix_u64(h, std::bit_cast<std::uint64_t>(v));
}

std::shared_ptr<const GridTable> build_table(const DeploymentGeometry& geometry,
                                             const GridSpec& spec) {
  auto table = std::make_shared<GridTable>();
  table->spec = spec;
  table->n_antennas = geometry.antenna_positions.size();
  table->antenna_positions = geometry.antenna_positions;
  table->region = geometry.working_region;
  table->tag_plane_z = geometry.tag_plane_z;

  const Rect& region = geometry.working_region;
  table->xs.resize(spec.nx);
  for (std::size_t ix = 0; ix < spec.nx; ++ix) {
    table->xs[ix] = grid_axis_coord(region.lo.x, region.width(), ix, spec.nx);
  }
  table->ys.resize(spec.ny);
  for (std::size_t iy = 0; iy < spec.ny; ++iy) {
    table->ys[iy] = grid_axis_coord(region.lo.y, region.height(), iy, spec.ny);
  }
  table->zs.resize(spec.nz);
  if (spec.mode_3d()) {
    for (std::size_t iz = 0; iz < spec.nz; ++iz) {
      table->zs[iz] =
          grid_axis_coord(spec.z_lo, spec.z_hi - spec.z_lo, iz, spec.nz);
    }
  } else {
    table->zs[0] = geometry.tag_plane_z;
  }

  const std::size_t na = table->n_antennas;
  table->dist.resize(table->n_cells() * na);
  std::size_t cell = 0;
  for (std::size_t iz = 0; iz < spec.nz; ++iz) {
    for (std::size_t iy = 0; iy < spec.ny; ++iy) {
      for (std::size_t ix = 0; ix < spec.nx; ++ix, ++cell) {
        const Vec3 p{table->xs[ix], table->ys[iy], table->zs[iz]};
        double* row = table->dist.data() + cell * na;
        for (std::size_t a = 0; a < na; ++a) {
          row[a] = distance(geometry.antenna_positions[a], p);
        }
      }
    }
  }
  return table;
}

}  // namespace

std::size_t GridTable::bytes() const {
  return (xs.capacity() + ys.capacity() + zs.capacity() + dist.capacity()) *
             sizeof(double) +
         antenna_positions.capacity() * sizeof(Vec3);
}

GridGeometryCache::GridGeometryCache(std::size_t max_entries)
    : max_entries_(max_entries > 0 ? max_entries : 1) {}

std::uint64_t GridGeometryCache::digest(const DeploymentGeometry& geometry,
                                        const GridSpec& spec) {
  std::uint64_t h = kFnvOffset;
  mix_u64(h, spec.nx);
  mix_u64(h, spec.ny);
  mix_u64(h, spec.nz);
  if (spec.mode_3d()) {
    mix_double(h, spec.z_lo);
    mix_double(h, spec.z_hi);
  } else {
    mix_double(h, geometry.tag_plane_z);
  }
  const Rect& region = geometry.working_region;
  mix_double(h, region.lo.x);
  mix_double(h, region.lo.y);
  mix_double(h, region.hi.x);
  mix_double(h, region.hi.y);
  mix_u64(h, geometry.antenna_positions.size());
  for (const Vec3& p : geometry.antenna_positions) {
    mix_double(h, p.x);
    mix_double(h, p.y);
    mix_double(h, p.z);
  }
  return h;
}

bool GridGeometryCache::matches(const GridTable& table,
                                const DeploymentGeometry& geometry,
                                const GridSpec& spec) {
  if (table.spec.nx != spec.nx || table.spec.ny != spec.ny ||
      table.spec.nz != spec.nz) {
    return false;
  }
  if (spec.mode_3d()) {
    if (table.spec.z_lo != spec.z_lo || table.spec.z_hi != spec.z_hi) {
      return false;
    }
  } else if (table.tag_plane_z != geometry.tag_plane_z) {
    return false;
  }
  const Rect& a = table.region;
  const Rect& b = geometry.working_region;
  if (a.lo.x != b.lo.x || a.lo.y != b.lo.y || a.hi.x != b.hi.x ||
      a.hi.y != b.hi.y) {
    return false;
  }
  return table.antenna_positions == geometry.antenna_positions;
}

std::shared_ptr<const GridTable> GridGeometryCache::acquire(
    const DeploymentGeometry& geometry, const GridSpec& spec) {
  require(spec.nx >= 2 && spec.ny >= 2 && spec.nz >= 1,
          "GridGeometryCache: grid must be at least 2x2 cells");
  require(!geometry.antenna_positions.empty(),
          "GridGeometryCache: geometry has no antennas");

  const std::uint64_t key = digest(geometry, spec);
  {
    std::shared_lock lock(mutex_);
    auto it = buckets_.find(key);
    if (it != buckets_.end()) {
      for (const auto& table : it->second) {
        if (matches(*table, geometry, spec)) {
          hits_.fetch_add(1, std::memory_order_relaxed);
          return table;
        }
      }
    }
  }

  // Miss: build outside any lock (builds are the expensive part and must
  // not serialize readers), then insert-if-absent — the first inserter
  // wins and losing builds are discarded so all callers share one table.
  misses_.fetch_add(1, std::memory_order_relaxed);
  std::shared_ptr<const GridTable> built = build_table(geometry, spec);
  builds_.fetch_add(1, std::memory_order_relaxed);

  std::unique_lock lock(mutex_);
  auto& bucket = buckets_[key];
  for (const auto& table : bucket) {
    if (matches(*table, geometry, spec)) return table;
  }
  while (order_.size() >= max_entries_) {
    const auto& [old_key, old_table] = order_.front();
    auto bucket_it = buckets_.find(old_key);
    if (bucket_it != buckets_.end()) {
      auto& old_bucket = bucket_it->second;
      std::erase(old_bucket, old_table);
      if (old_bucket.empty()) buckets_.erase(bucket_it);
    }
    order_.pop_front();
    evictions_.fetch_add(1, std::memory_order_relaxed);
  }
  bucket.push_back(built);
  order_.emplace_back(key, built);
  return built;
}

GridGeometryCache::Stats GridGeometryCache::stats() const {
  Stats out;
  out.hits = hits_.load(std::memory_order_relaxed);
  out.misses = misses_.load(std::memory_order_relaxed);
  out.builds = builds_.load(std::memory_order_relaxed);
  out.evictions = evictions_.load(std::memory_order_relaxed);
  std::shared_lock lock(mutex_);
  out.entries = order_.size();
  for (const auto& [key, table] : order_) out.bytes += table->bytes();
  return out;
}

void GridGeometryCache::clear() {
  std::unique_lock lock(mutex_);
  buckets_.clear();
  order_.clear();
  hits_.store(0, std::memory_order_relaxed);
  misses_.store(0, std::memory_order_relaxed);
  builds_.store(0, std::memory_order_relaxed);
  evictions_.store(0, std::memory_order_relaxed);
}

GridGeometryCache& GridGeometryCache::shared() {
  static GridGeometryCache cache;
  return cache;
}

}  // namespace rfp
