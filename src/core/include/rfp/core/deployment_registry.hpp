#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "rfp/core/calibration.hpp"
#include "rfp/core/drift.hpp"
#include "rfp/core/pipeline.hpp"

/// \file deployment_registry.hpp
/// Multi-tenant deployment state for the serving layer. One daemon serves
/// many sites: each wire session ships its surveyed geometry +
/// calibration database (wire protocol v2's kSessionSetup), and the
/// registry resolves that deployment to a *tenant* — an RfPrism grafted
/// onto the server's solver settings, which owns the deployment's drift
/// estimate when drift is enabled. Tenants are keyed by a digest of the
/// deployment's canonical encoding, so two sessions shipping byte-equal
/// deployments share one tenant (and thus one drift estimate, fed by
/// their senses and streams alike), while the heavy per-deployment
/// artifacts — the Stage-A distance tables — are shared further down by
/// GridGeometryCache::shared(), which keys on the physical geometry by
/// itself. The thread pool and workspaces are the engine's; the registry
/// adds no execution resources, only identity and per-tenant state.
///
/// Thread-safe: acquire()/stats() may race across reactor threads; tenant
/// counters are atomics and each tenant prism locks its own drift
/// estimator.

namespace rfp {

/// Monotonic per-tenant serving counters (a TenantStats snapshot).
struct TenantStats {
  std::uint64_t digest = 0;
  std::size_t n_antennas = 0;
  bool is_default = false;
  bool drift_enabled = false;
  std::uint64_t sessions_opened = 0;
  std::uint64_t requests_completed = 0;  ///< non-error responses
  std::uint64_t requests_failed = 0;     ///< error frames
  std::uint64_t stream_reads = 0;        ///< reads pushed into sessions
  std::uint64_t stream_emissions = 0;    ///< streamed results returned
  std::uint64_t stream_evictions = 0;    ///< session-buffer evictions
  DriftStats drift;  ///< the prism's estimate; all-zero unless drift_enabled
};

/// One tenant: the deployment-specific half of a solve. Obtained from a
/// DeploymentRegistry and held by shared_ptr — a tenant stays alive (and
/// un-evictable) while any session holds it.
class DeploymentTenant {
 public:
  const RfPrism& prism() const { return *prism_; }
  std::uint64_t digest() const { return digest_; }
  bool is_default() const { return is_default_; }

  // ---- Serving counters (incremented by the server) --------------------
  void count_session_opened() { ++sessions_opened_; }
  void count_request(bool failed) {
    if (failed) {
      ++requests_failed_;
    } else {
      ++requests_completed_;
    }
  }
  void count_stream(std::uint64_t reads, std::uint64_t emissions) {
    stream_reads_ += reads;
    stream_emissions_ += emissions;
  }
  void count_stream_evictions(std::uint64_t evictions) {
    stream_evictions_ += evictions;
  }

  TenantStats stats() const;

 private:
  friend class DeploymentRegistry;
  DeploymentTenant() = default;

  std::uint64_t digest_ = 0;
  bool is_default_ = false;
  std::vector<std::uint8_t> key_bytes_;     ///< canonical deployment encoding
  std::unique_ptr<RfPrism> owned_prism_;    ///< session tenants own theirs
  const RfPrism* prism_ = nullptr;          ///< default tenant borrows

  std::atomic<std::uint64_t> sessions_opened_{0};
  std::atomic<std::uint64_t> requests_completed_{0};
  std::atomic<std::uint64_t> requests_failed_{0};
  std::atomic<std::uint64_t> stream_reads_{0};
  std::atomic<std::uint64_t> stream_emissions_{0};
  std::atomic<std::uint64_t> stream_evictions_{0};
};

class DeploymentRegistry {
 public:
  /// `max_tenants` bounds resident tenants (the default tenant included).
  /// At the cap, acquiring a new deployment evicts the oldest tenant no
  /// session still holds; when every slot is pinned, acquire() throws.
  explicit DeploymentRegistry(std::size_t max_tenants = 16);

  /// Install the always-resident default tenant wrapping the caller's
  /// pipeline (borrowed — it must outlive the registry). Its config also
  /// becomes the solver-settings template for session tenants: a shipped
  /// deployment replaces only geometry + calibrations, never solver
  /// modes. Call once, before acquire().
  std::shared_ptr<DeploymentTenant> set_default(const RfPrism& prism);

  std::shared_ptr<DeploymentTenant> default_tenant() const;

  /// Resolve a shipped deployment to its tenant, creating it on first
  /// sight. Byte-equal deployments share a tenant; `enable_drift` turns
  /// on drift in a *new* tenant's prism (an existing tenant's drift state
  /// is never reset by a new session). Throws InvalidArgument
  /// when RfPrism rejects the geometry or the calibration's antenna count
  /// mismatches, and Error("deployment registry full") when at capacity
  /// with every tenant pinned by a live session.
  std::shared_ptr<DeploymentTenant> acquire(const DeploymentGeometry& geometry,
                                            const CalibrationDB& calibrations,
                                            bool enable_drift = false);

  /// Digest of a deployment's canonical encoding (what acquire() keys
  /// on). Exposed so clients/tests can predict the tenant key.
  static std::uint64_t digest_of(const DeploymentGeometry& geometry,
                                 const CalibrationDB& calibrations);

  std::size_t size() const;
  std::size_t capacity() const { return max_tenants_; }
  std::uint64_t evictions() const { return evictions_.load(); }

  /// Snapshot of every resident tenant's counters, default tenant first,
  /// then by ascending digest (stable for operators diffing stats).
  std::vector<TenantStats> stats() const;

 private:
  std::size_t max_tenants_;
  mutable std::mutex mutex_;
  std::map<std::uint64_t, std::shared_ptr<DeploymentTenant>> tenants_;
  std::deque<std::uint64_t> insertion_order_;  ///< eviction candidates, FIFO
  std::shared_ptr<DeploymentTenant> default_tenant_;
  RfPrismConfig base_config_;
  bool has_default_ = false;
  std::atomic<std::uint64_t> evictions_{0};
};

}  // namespace rfp
