#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "rfp/common/socket.hpp"
#include "rfp/core/types.hpp"
#include "rfp/net/wire.hpp"
#include "rfp/rfsim/reader.hpp"

/// \file client.hpp
/// Blocking rfpd client. One connection, synchronous request/response by
/// default, plus a split send/read surface for pipelining (the bench and
/// the shutdown-drain test send many requests before reading anything).
/// All failures surface as NetError (transport) or RemoteError (the
/// server answered with an error frame); timeouts are NetError.

namespace rfp::net {

struct ClientConfig {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  double connect_timeout_s = 5.0;
  /// Per-operation deadline for sends and response waits; 0 disables.
  double io_timeout_s = 30.0;
  /// Total connection attempts before Client's constructor gives up.
  int connect_attempts = 3;
  /// Sleep between attempts, doubled each retry.
  double retry_backoff_s = 0.1;
  std::size_t max_payload = kDefaultMaxPayload;

  // -- Request retry (sense / sense_raw / ping only) ---------------------
  // Sensing requests are idempotent pure computation, so a transport
  // fault mid-request (refused/reset connection, short read, timeout) is
  // safe to answer with reconnect-and-resend. RemoteError — the server
  // *answered*, with an error frame — is never retried, and the pipelined
  // surface (send_sense/read_frame) is never retried either: only the
  // caller knows which in-flight requests a resend would duplicate.

  /// Total attempts per request (>= 1); 1 restores fail-fast behaviour.
  int request_attempts = 3;
  /// Sleep before each retry, doubled every time and capped below.
  double request_backoff_s = 0.05;
  double request_backoff_max_s = 1.0;
  /// Overall wall-clock deadline across all attempts of one request,
  /// including backoff sleeps; 0 = attempts alone bound the work.
  double request_deadline_s = 0.0;
};

class Client {
 public:
  /// Connects immediately (with retries); throws NetError on failure.
  explicit Client(ClientConfig config);

  Client(Client&&) = default;
  Client& operator=(Client&&) = default;

  /// Round-trip one sensing request. Throws RemoteError if the server
  /// answered with an error frame. Transient transport failures are
  /// retried with exponential backoff per ClientConfig::request_attempts
  /// (reconnecting as needed); NetError means retries were exhausted.
  SensingResult sense(const RoundTrace& round, const std::string& tag_id = {});

  /// Same round trip, but returns the raw response *payload* bytes —
  /// the byte-identity tests compare these against a locally encoded
  /// SensingResult without a decode/re-encode in between.
  std::vector<std::uint8_t> sense_raw(const RoundTrace& round,
                                      const std::string& tag_id = {});

  /// Liveness probe; throws on anything but a clean pong.
  void ping();

  // -- Session surface (wire v2) -----------------------------------------

  /// Ship a deployment (geometry + calibrations) to the server and bind
  /// this connection to its tenant. Subsequent sense/stream calls solve
  /// against the shipped deployment instead of the server's default.
  /// Idempotent on the server (tenants are keyed by deployment digest),
  /// so transport faults are retried like sense(); the setup payload is
  /// also remembered and replayed after any reconnect, so a retried
  /// request can never silently land on the wrong deployment. Throws
  /// RemoteError when the server refuses (malformed deployment, registry
  /// full).
  SessionReady setup_session(const DeploymentGeometry& geometry,
                             const CalibrationDB& calibrations,
                             bool enable_drift = false,
                             bool enable_tracking = false);

  /// Push raw tag reads into this connection's server-side streaming
  /// sensor and collect whatever completed rounds the push released
  /// (evaluated at stream time `now_s`, exactly like
  /// StreamingSensor::poll). NOT retried on transport faults — a resend
  /// would double-push the reads; callers own dedup across reconnects.
  ///
  /// On a session that negotiated tracking (setup_session with
  /// enable_tracking, granted in SessionReady::tracking_enabled), each
  /// push is answered with kStreamResults + kTrackEvents; the trajectory
  /// events land in `track_events` when non-null and are drained off the
  /// wire (and discarded) when null.
  std::vector<StreamedResult> push_stream(
      std::span<const TagRead> reads, double now_s,
      std::vector<track::TrackEvent>* track_events = nullptr);

  /// Same push, returning the raw kStreamResults payload bytes (the
  /// byte-identity tests compare these against locally encoded results).
  /// On a tracking session the raw kTrackEvents payload lands in
  /// `track_payload` when non-null.
  std::vector<std::uint8_t> push_stream_raw(
      std::span<const TagRead> reads, double now_s,
      std::vector<std::uint8_t>* track_payload = nullptr);

  /// Whether the active session negotiated per-push kTrackEvents frames.
  bool session_tracking() const { return session_tracking_; }

  /// Rebind the connection to the server's default deployment and drop
  /// the server-side streaming state. Forgets the replay payload first,
  /// so the session stays closed even if the ack is lost.
  void close_session();

  /// Whether a setup_session deployment is active (and would be replayed
  /// on reconnect).
  bool has_session() const { return session_setup_payload_.has_value(); }

  // -- Pipelined surface -------------------------------------------------

  /// Send one sensing request without waiting; returns its seq. The
  /// server answers in request order, so the k-th read_frame() after k-1
  /// others carries this seq.
  std::uint32_t send_sense(const RoundTrace& round,
                           const std::string& tag_id = {});

  /// Block for the next response frame (any type; error frames are
  /// returned, not thrown — pipelining callers match them by seq).
  Frame read_frame();

  /// Send raw bytes on the wire, bypassing frame encoding. Exists for
  /// protocol tests (malformed input) — not part of the sensing API.
  void send_bytes(std::span<const std::uint8_t> data);

  void close() { fd_.reset(); }
  bool connected() const { return fd_.valid(); }

 private:
  void send_frame(FrameType type, std::uint32_t seq,
                  std::span<const std::uint8_t> payload);

  /// The cleared send scratch: every outbound frame (header and payload)
  /// is encoded in place here, so a pipelined burst reuses one buffer
  /// instead of allocating per request.
  std::vector<std::uint8_t>& send_scratch();

  /// One fresh connection attempt (no retry loop); resets the decoder so
  /// stale bytes from the previous connection cannot leak into the next
  /// response. Throws NetError on failure.
  void reconnect();

  /// Run `op`, retrying transport failures (NetError) with exponential
  /// backoff under the config's attempt/deadline bounds. RemoteError
  /// passes straight through. Reconnects lazily before each attempt.
  void run_with_retry(const std::function<void()>& op);

  std::vector<std::uint8_t> sense_raw_once(const RoundTrace& round,
                                           const std::string& tag_id);
  void ping_once();
  SessionReady setup_session_once(std::span<const std::uint8_t> payload);

  ClientConfig config_;
  UniqueFd fd_;
  /// Reused for every outbound frame (see send_scratch); clear() keeps
  /// the capacity, so request bursts run allocation-free once it has grown
  /// to the largest frame seen.
  std::vector<std::uint8_t> send_buffer_;
  FrameDecoder decoder_;
  std::uint32_t next_seq_ = 1;
  /// Encoded kSessionSetup payload of the active session, kept for
  /// replay inside reconnect() (the session dies with the connection).
  std::optional<std::vector<std::uint8_t>> session_setup_payload_;
  /// The active session was granted tracking: every push reads one extra
  /// kTrackEvents frame. Survives reconnect (the replayed setup payload
  /// carries the same tracking bit).
  bool session_tracking_ = false;
};

}  // namespace rfp::net
