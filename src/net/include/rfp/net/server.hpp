#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "rfp/common/buffer_pool.hpp"
#include "rfp/common/socket.hpp"
#include "rfp/core/antenna_health.hpp"
#include "rfp/core/deployment_registry.hpp"
#include "rfp/core/engine.hpp"
#include "rfp/core/pipeline.hpp"
#include "rfp/core/streaming.hpp"
#include "rfp/net/wire.hpp"

/// \file server.hpp
/// The rfpd serving loop: N poll()-based reactor threads that parse wire
/// frames, enqueue complete rounds onto a shared SensingEngine's worker
/// pool, and write responses back in per-connection request order. Each
/// reactor owns its own SO_REUSEPORT listener, connection set, completion
/// queue, and self-pipe — the kernel spreads incoming connections across
/// the group, and a connection lives its whole life on one reactor.
/// Reactor threads never solve and the workers never touch a socket: they
/// meet at the owning reactor's mutex-guarded completion queue plus its
/// self-pipe.
///
/// Tenancy: a DeploymentRegistry resolves each session's shipped
/// deployment (wire v2 kSessionSetup) to a per-tenant RfPrism, which owns
/// the deployment's drift estimate; the engine's thread pool and
/// workspaces, and GridGeometryCache::shared(), serve every tenant. A
/// connection starts bound to the *default* tenant (the prism the server
/// was built with), so v2 clients that never set up a session get the
/// pre-tenancy behaviour unchanged. Streaming sessions (kStreamPush) run a
/// per-connection StreamingSensor over the session's tenant, driven
/// inline on the owning reactor — pushes of one session are naturally
/// serialized, and the engine still fans the completing tags' solves
/// across the pool.
///
/// Ordering: each accepted request gets a per-connection index; finished
/// responses park in a fixed reorder ring (max_pending_per_connection
/// slots, so indices can never collide) until every earlier response has
/// been written. seq values are echoed, not interpreted. The ring's
/// parked bytes are bounded by max_reorder_bytes: a connection whose
/// out-of-order completions exceed the cap is shed (counted in
/// reorder_evictions) rather than growing server memory without bound.
///
/// Data path: response frames are encoded straight into buffers from the
/// reactor's BufferPool, spliced (moved) into the connection's Outbox
/// segment chain, and drained with writev — zero steady-state heap
/// allocations and no flattening copy on the outbound side (see DESIGN.md
/// §9 "Data path & memory").
///
/// Backpressure: a connection with `max_pending_per_connection` requests
/// in flight (or an unflushed output backlog past the write buffer cap)
/// stops being read — bytes accumulate in kernel buffers and eventually
/// stall the client's send, which is the whole point.
///
/// Version negotiation: a peer whose frames carry a different protocol
/// version gets one kError frame with WireError::kUnsupportedVersion —
/// encoded at the *peer's* version when older, so a v1 client can decode
/// its goodbye — then a clean close, counted in
/// connections_closed_version (framing garbage stays in
/// connections_closed_protocol).
///
/// Shutdown: stop() (or the async-signal-safe request_stop()) closes the
/// listeners and stops reading, but every reactor keeps running until its
/// in-flight solves have completed and their responses have been flushed
/// (bounded by drain_flush_timeout_s for unwritable peers). No accepted
/// request loses its response to a graceful shutdown, and a reactor with
/// nothing outstanding exits at once.
///
/// Accepted sockets set TCP_NODELAY (tcp_accept): every response is one
/// complete frame written once, and Nagle would only hold pipelined
/// responses behind the client's delayed ACK.

namespace rfp::net {

struct ServerConfig {
  std::string bind_address = "127.0.0.1";
  std::uint16_t port = 0;  ///< 0 picks an ephemeral port (see Server::port)
  int backlog = 64;
  std::size_t max_connections = 64;
  std::size_t max_payload = kDefaultMaxPayload;
  /// Reactor threads (>= 1). Each owns a listener on the same port
  /// (SO_REUSEPORT when > 1) and services its own connections end to end.
  std::size_t reactors = 1;
  /// Resident deployments in the registry, default tenant included;
  /// beyond this the oldest tenant with no live session is evicted.
  std::size_t max_tenants = 16;
  /// Requests accepted but not yet answered before the server stops
  /// reading the connection.
  std::size_t max_pending_per_connection = 32;
  /// Unflushed response bytes before the server stops reading the
  /// connection (second backpressure trigger, for slow readers).
  std::size_t max_write_backlog = 8u << 20;
  /// Response bytes parked out-of-order in a connection's reorder map
  /// before the connection is shed (reorder_evictions). In-order
  /// responses move straight to the write buffer and are governed by
  /// max_write_backlog instead.
  std::size_t max_reorder_bytes = 16u << 20;
  /// Seconds of inactivity (no frames, nothing pending) before a
  /// connection is closed; 0 disables.
  double idle_timeout_s = 60.0;
  /// Seconds a connection may hold *unfinished work* — a partially
  /// received frame, or unflushed response bytes the peer won't read —
  /// without making progress before it is shed; 0 disables. This is what
  /// stops a slow-loris (trickling header bytes keeps last_activity fresh
  /// forever, so the idle timeout never fires) and reclaims write-blocked
  /// connections, without ever touching a connection that is merely
  /// waiting on its own in-flight solves.
  double stall_timeout_s = 30.0;
  /// At shutdown, how long to keep trying to flush drained responses to
  /// peers that have stopped reading; 0 means don't wait for the flush.
  /// This only caps a drain with work outstanding: a reactor whose
  /// connections are all drained exits without waiting.
  double drain_flush_timeout_s = 10.0;
  /// Per-session streaming buffers: each kStreamPush session runs a
  /// StreamingSensor with these caps, so session memory is bounded by the
  /// sensor's own three-level eviction policy (evictions are surfaced in
  /// ServerStats::stream_evictions and the tenant's counters).
  StreamingConfig stream;
  /// Per-session trajectory tracking (rfpd --track). When
  /// tracking.enable is set, a session that also asked for tracking in
  /// its kSessionSetup gets a per-connection TrackingEngine fed by its
  /// stream emissions, and every kStreamResults is followed by one
  /// kTrackEvents frame. Off by default — the serving path is then
  /// byte-identical to the pre-tracking server.
  track::TrackingConfig tracking;
  /// Per-reactor buffer pool owning all connection I/O memory: response
  /// frames are encoded into pooled buffers, spliced into per-connection
  /// outboxes, drained by writev, and returned — zero steady-state heap
  /// traffic on the wire path (rfpd --pool-buffers tunes the freelist
  /// depth).
  BufferPoolConfig pool;
  /// Outbound frames at or under this size are packed into the tail
  /// outbox segment (one small copy) instead of occupying their own
  /// segment, keeping writev iovec chains short under pong floods.
  std::size_t outbox_coalesce_limit = 512;
};

struct ServerStats {
  std::uint64_t connections_accepted = 0;
  std::uint64_t connections_rejected = 0;     ///< over max_connections
  std::uint64_t connections_closed_idle = 0;
  std::uint64_t connections_closed_stalled = 0;   ///< slow-loris / dead peers
  std::uint64_t connections_closed_protocol = 0;  ///< framing violations
  std::uint64_t connections_closed_version = 0;   ///< protocol version peers
  std::uint64_t frames_received = 0;
  std::uint64_t requests_completed = 0;
  std::uint64_t requests_failed = 0;
  std::uint64_t bytes_received = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t backpressure_pauses = 0;
  std::uint64_t reorder_evictions = 0;  ///< connections shed, reorder cap
  std::size_t connections_open = 0;

  // -- Sessions / tenancy ------------------------------------------------
  std::uint64_t sessions_opened = 0;
  std::uint64_t sessions_closed = 0;   ///< explicit kSessionClose rebinds
  std::uint64_t stream_reads = 0;      ///< reads pushed into sessions
  std::uint64_t stream_results = 0;    ///< streamed emissions returned
  std::uint64_t stream_evictions = 0;  ///< session sensor buffer evictions
  std::uint64_t stream_track_events = 0;  ///< trajectory events returned
  std::size_t tenants_resident = 0;
  std::uint64_t tenants_evicted = 0;

  // -- Data path (per-reactor pools, outbox splices, writev drains) ------
  std::uint64_t pool_hits = 0;      ///< buffer acquires served off freelists
  std::uint64_t pool_misses = 0;    ///< acquires that hit the heap
  std::uint64_t pool_discards = 0;  ///< returned buffers freed, not kept
  std::size_t pool_bytes_resident = 0;
  std::uint64_t frames_spliced = 0;    ///< response buffers moved, not copied
  std::uint64_t frames_coalesced = 0;  ///< small frames packed into a tail
  std::uint64_t bytes_coalesced = 0;   ///< bytes copied by that packing
  std::uint64_t writev_calls = 0;      ///< scatter-gather drains issued

  // -- Drift self-calibration: the default deployment's estimate, fed by
  //    its senses and streams alike (all-zero unless the default prism
  //    enables drift; session tenants report through tenant_stats()) -----
  std::uint64_t drift_rounds_observed = 0;
  std::uint64_t drift_outliers_rejected = 0;
  std::uint64_t drift_alarms_raised = 0;   ///< re-survey alarm edges
  std::uint64_t drift_alarms_active = 0;   ///< ports currently latched
  std::uint64_t drift_ports_dropped = 0;   ///< beyond the correctable bound
};

/// One rfpd instance: owns the listeners and the deployment registry,
/// borrows the default pipeline and the engine. The pipeline and engine
/// must outlive the server. Thread-safe surface:
/// port()/stats()/tenant_stats()/request_stop()/stop() may be called from
/// any thread; run() belongs to exactly one.
class Server {
 public:
  /// Binds and listens immediately (config.reactors listeners); throws
  /// NetError when the address can't be bound. `prism` becomes the
  /// registry's default tenant and the solver-settings template for
  /// session tenants. `health` optionally gates quarantined ports exactly
  /// as in RfPrism::sense — for the default tenant only (port health is
  /// deployment-specific).
  Server(const RfPrism& prism, SensingEngine& engine,
         ServerConfig config = {},
         const AntennaHealthMonitor* health = nullptr);

  /// Requests stop, drains in-flight solves, joins the reactor threads.
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// The actually-bound port (resolves port = 0 in the config; every
  /// reactor listens on this one port).
  std::uint16_t port() const { return port_; }

  /// Run reactor 0's poll loop on the calling thread (spawning threads
  /// for the other reactors) until a stop is requested and the drain
  /// completes. Call this *or* start(), not both.
  void run();

  /// Run every reactor on a background thread.
  void start();

  /// Request a graceful stop and wait for run()/the reactor threads to
  /// finish draining. Returns as soon as every in-flight solve has been
  /// answered and flushed (an idle server stops at once); the drain loop's
  /// 100 ms poll cap only bounds waits while work is outstanding.
  void stop();

  /// Async-signal-safe stop request (atomic flag + self-pipe writes);
  /// safe to call from a SIGINT/SIGTERM handler.
  void request_stop() noexcept;

  /// Aggregated across reactors.
  ServerStats stats() const;

  /// Per-tenant serving counters, default tenant first.
  std::vector<TenantStats> tenant_stats() const { return registry_.stats(); }

 private:
  class Reactor;

  void join_reactor_threads();

  const RfPrism& prism_;
  SensingEngine& engine_;
  const AntennaHealthMonitor* health_;
  ServerConfig config_;

  DeploymentRegistry registry_;
  std::shared_ptr<DeploymentTenant> default_tenant_;

  std::uint16_t port_ = 0;
  std::atomic<bool> stop_requested_{false};
  std::atomic<std::size_t> open_connections_{0};

  std::vector<std::unique_ptr<Reactor>> reactors_;
  std::vector<std::thread> reactor_threads_;
  std::mutex join_mutex_;  ///< serializes run()/stop() joining the threads
};

}  // namespace rfp::net
