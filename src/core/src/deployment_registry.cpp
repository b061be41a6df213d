#include "rfp/core/deployment_registry.hpp"

#include <span>
#include <utility>

#include "rfp/common/bytes.hpp"
#include "rfp/common/error.hpp"

namespace rfp {

namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

std::uint64_t fnv1a(std::span<const std::uint8_t> bytes) {
  std::uint64_t h = kFnvOffset;
  for (std::uint8_t b : bytes) {
    h ^= b;
    h *= kFnvPrime;
  }
  return h;
}

void append_vec3(ByteWriter& w, const Vec3& v) {
  w.f64(v.x);
  w.f64(v.y);
  w.f64(v.z);
}

/// Canonical key material of a deployment: geometry then calibrations,
/// tags in sorted order, doubles as IEEE-754 bit patterns. Mirrors the
/// rfp::io binary encoding without depending on it (io sits above core);
/// what matters here is only that byte-equal deployments — and nothing
/// else — collide.
std::vector<std::uint8_t> key_material(const DeploymentGeometry& geometry,
                                       const CalibrationDB& calibrations) {
  std::vector<std::uint8_t> bytes;
  ByteWriter w(bytes);
  w.u32(static_cast<std::uint32_t>(geometry.antenna_positions.size()));
  for (std::size_t i = 0; i < geometry.antenna_positions.size(); ++i) {
    append_vec3(w, geometry.antenna_positions[i]);
    if (i < geometry.antenna_frames.size()) {
      append_vec3(w, geometry.antenna_frames[i].u);
      append_vec3(w, geometry.antenna_frames[i].v);
      append_vec3(w, geometry.antenna_frames[i].n);
    }
  }
  w.f64(geometry.working_region.lo.x);
  w.f64(geometry.working_region.lo.y);
  w.f64(geometry.working_region.hi.x);
  w.f64(geometry.working_region.hi.y);
  w.f64(geometry.tag_plane_z);

  if (calibrations.reader().has_value()) {
    const ReaderCalibration& reader = *calibrations.reader();
    w.u8(1);
    w.u32(static_cast<std::uint32_t>(reader.delta_k.size()));
    for (double v : reader.delta_k) w.f64(v);
    for (double v : reader.delta_b) w.f64(v);
  } else {
    w.u8(0);
  }
  const std::vector<std::string> ids = calibrations.tag_ids();
  w.u32(static_cast<std::uint32_t>(ids.size()));
  for (const std::string& id : ids) {
    const TagCalibration& cal = *calibrations.find_tag(id);
    w.str(id);
    w.f64(cal.kd);
    w.f64(cal.bd);
    w.u32(static_cast<std::uint32_t>(cal.residual_curve.size()));
    for (double v : cal.residual_curve) w.f64(v);
  }
  return bytes;
}

}  // namespace

TenantStats DeploymentTenant::stats() const {
  TenantStats out;
  out.digest = digest_;
  out.n_antennas = prism_->config().geometry.n_antennas();
  out.is_default = is_default_;
  out.drift_enabled = prism_->drift_enabled();
  out.sessions_opened = sessions_opened_.load();
  out.requests_completed = requests_completed_.load();
  out.requests_failed = requests_failed_.load();
  out.stream_reads = stream_reads_.load();
  out.stream_emissions = stream_emissions_.load();
  out.stream_evictions = stream_evictions_.load();
  out.drift = prism_->drift_stats();
  return out;
}

DeploymentRegistry::DeploymentRegistry(std::size_t max_tenants)
    : max_tenants_(max_tenants == 0 ? 1 : max_tenants) {}

std::shared_ptr<DeploymentTenant> DeploymentRegistry::set_default(
    const RfPrism& prism) {
  const std::lock_guard<std::mutex> lock(mutex_);
  require(!has_default_, "DeploymentRegistry: default tenant already set");
  auto tenant = std::shared_ptr<DeploymentTenant>(new DeploymentTenant());
  tenant->key_bytes_ =
      key_material(prism.config().geometry, prism.calibrations());
  tenant->digest_ = fnv1a(tenant->key_bytes_);
  tenant->is_default_ = true;
  tenant->prism_ = &prism;
  default_tenant_ = tenant;
  base_config_ = prism.config();
  has_default_ = true;
  tenants_[tenant->digest_] = tenant;
  return tenant;
}

std::shared_ptr<DeploymentTenant> DeploymentRegistry::default_tenant() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return default_tenant_;
}

std::shared_ptr<DeploymentTenant> DeploymentRegistry::acquire(
    const DeploymentGeometry& geometry, const CalibrationDB& calibrations,
    bool enable_drift) {
  std::vector<std::uint8_t> key = key_material(geometry, calibrations);
  const std::uint64_t digest = fnv1a(key);

  const std::lock_guard<std::mutex> lock(mutex_);
  require(has_default_, "DeploymentRegistry: set_default before acquire");
  const auto it = tenants_.find(digest);
  if (it != tenants_.end()) {
    if (it->second->key_bytes_ != key) {
      throw Error("DeploymentRegistry: deployment digest collision");
    }
    return it->second;
  }

  // Graft the shipped deployment onto the server's solver settings: the
  // client chooses the site, never the solver modes. The drift tuning is
  // the server's too, but the switch is the session's: a session asking
  // for drift gets a live estimator whether or not the daemon runs one.
  RfPrismConfig config = base_config_;
  config.geometry = geometry;
  config.disentangle.drift.enable = enable_drift;

  auto tenant = std::shared_ptr<DeploymentTenant>(new DeploymentTenant());
  tenant->owned_prism_ = std::make_unique<RfPrism>(std::move(config));
  tenant->owned_prism_->import_calibrations(calibrations);
  tenant->prism_ = tenant->owned_prism_.get();
  tenant->digest_ = digest;
  tenant->key_bytes_ = std::move(key);

  // Built first, so a deployment the prism rejects evicts no one.
  if (tenants_.size() >= max_tenants_) {
    // Evict the oldest tenant no session still holds (use_count == 1:
    // only the registry's map references it). The default tenant is
    // never a candidate — it isn't in insertion_order_.
    bool evicted = false;
    for (auto order_it = insertion_order_.begin();
         order_it != insertion_order_.end(); ++order_it) {
      const auto victim = tenants_.find(*order_it);
      if (victim != tenants_.end() && victim->second.use_count() == 1) {
        tenants_.erase(victim);
        insertion_order_.erase(order_it);
        ++evictions_;
        evicted = true;
        break;
      }
    }
    if (!evicted) throw Error("deployment registry full");
  }

  tenants_[digest] = tenant;
  insertion_order_.push_back(digest);
  return tenant;
}

std::uint64_t DeploymentRegistry::digest_of(const DeploymentGeometry& geometry,
                                            const CalibrationDB& calibrations) {
  return fnv1a(key_material(geometry, calibrations));
}

std::size_t DeploymentRegistry::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return tenants_.size();
}

std::vector<TenantStats> DeploymentRegistry::stats() const {
  std::vector<std::shared_ptr<DeploymentTenant>> tenants;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (default_tenant_) tenants.push_back(default_tenant_);
    for (const auto& [digest, tenant] : tenants_) {
      if (!tenant->is_default()) tenants.push_back(tenant);
    }
  }
  std::vector<TenantStats> out;
  out.reserve(tenants.size());
  for (const auto& tenant : tenants) out.push_back(tenant->stats());
  return out;
}

}  // namespace rfp
