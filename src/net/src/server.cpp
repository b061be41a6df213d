#include "rfp/net/server.hpp"

#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <fcntl.h>
#include <poll.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <deque>
#include <map>
#include <span>

namespace rfp::net {

namespace {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

const char* decode_error_message(DecodeStatus status) {
  switch (status) {
    case DecodeStatus::kBadMagic:
      return "bad frame magic";
    case DecodeStatus::kOversized:
      return "frame payload exceeds server limit";
    default:
      return "framing error";
  }
}

/// Memory a queued response holds: its heap block and the vector in its
/// queue slot. The write-backlog and reorder caps charge this rather than
/// the wire bytes, so they bound memory for 16-byte pongs as well as for
/// 4 KB sense responses.
std::size_t resident_bytes(const std::vector<std::uint8_t>& frame) {
  return frame.capacity() + sizeof frame;
}

}  // namespace

/// One reactor: a listener in the SO_REUSEPORT group, its accepted
/// connections, its completion queue, and its poll loop. A connection is
/// born, serviced, and buried on one reactor; the only cross-reactor
/// state is the shared engine/registry (their own locks) and the server's
/// open-connection count (atomic).
class Server::Reactor {
 public:
  Reactor(Server& server, UniqueFd listener)
      : server_(server), listener_(std::move(listener)),
        ready_slots_(std::bit_ceil(
            std::max<std::size_t>(1, server.config_.max_pending_per_connection))) {
    int pipe_fds[2];
    if (::pipe2(pipe_fds, O_NONBLOCK | O_CLOEXEC) != 0) {
      throw NetError(std::string("rfpd: pipe2: ") + std::strerror(errno));
    }
    wake_read_ = UniqueFd(pipe_fds[0]);
    wake_write_ = UniqueFd(pipe_fds[1]);
  }

  ~Reactor() {
    // Worker jobs capture `this`; they must all have finished before the
    // completion queue (and everything else) is torn down.
    std::unique_lock<std::mutex> lock(jobs_mutex_);
    jobs_cv_.wait(lock, [this] { return jobs_outstanding_ == 0; });
  }

  Reactor(const Reactor&) = delete;
  Reactor& operator=(const Reactor&) = delete;

  void run() { poll_loop(); }

  void wake() noexcept {
    const char byte = 0;
    // A full pipe already guarantees a pending wakeup.
    (void)!::write(wake_write_.get(), &byte, 1);
  }

  /// Accumulate this reactor's counters into an aggregate snapshot.
  void add_to(ServerStats& out) const {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    out.connections_accepted += stats_.connections_accepted;
    out.connections_rejected += stats_.connections_rejected;
    out.connections_closed_idle += stats_.connections_closed_idle;
    out.connections_closed_stalled += stats_.connections_closed_stalled;
    out.connections_closed_protocol += stats_.connections_closed_protocol;
    out.connections_closed_version += stats_.connections_closed_version;
    out.frames_received += stats_.frames_received;
    out.requests_completed += stats_.requests_completed;
    out.requests_failed += stats_.requests_failed;
    out.bytes_received += stats_.bytes_received;
    out.bytes_sent += stats_.bytes_sent;
    out.backpressure_pauses += stats_.backpressure_pauses;
    out.reorder_evictions += stats_.reorder_evictions;
    out.connections_open += stats_.connections_open;
    out.sessions_opened += stats_.sessions_opened;
    out.sessions_closed += stats_.sessions_closed;
    out.stream_reads += stats_.stream_reads;
    out.stream_results += stats_.stream_results;
    out.stream_evictions += stats_.stream_evictions;
    out.stream_track_events += stats_.stream_track_events;
    out.writev_calls += stats_.writev_calls;
  }

 private:
  struct Connection {
    std::uint64_t id = 0;
    UniqueFd fd;
    FrameDecoder decoder;

    // Session binding: which deployment this connection's requests solve
    // against (the registry default until a kSessionSetup rebinds it),
    // plus the lazily created per-session streaming sensor. The tenant
    // shared_ptr pins the deployment against registry eviction; `sensor`
    // is declared after `tenant` so it is destroyed first.
    std::shared_ptr<DeploymentTenant> tenant;
    /// Session trajectory engine (kSessionSetup tracking bit granted by
    /// --track). Declared before `sensor`: the sensor holds a raw
    /// TrackSink pointer to it, so the sensor must be destroyed first.
    std::unique_ptr<track::TrackingEngine> tracker;
    bool tracking = false;  ///< session negotiated kTrackEvents frames
    std::unique_ptr<StreamingSensor> sensor;
    std::uint64_t sensor_evictions_seen = 0;

    /// Unflushed responses in emission order, one vector per response;
    /// the first `out_front_sent` bytes of the front one are written.
    std::deque<std::vector<std::uint8_t>> out;
    std::size_t out_front_sent = 0;
    std::size_t out_bytes = 0;  ///< resident_bytes() across `out`

    // Per-connection ordering: request `index` values are assigned as
    // frames arrive; finished responses wait in the `ready` ring until
    // everything earlier has been queued on `out`. The ring has
    // bit_ceil(max_pending_per_connection) slots and in_flight is gated
    // below max_pending before an index is assigned, so two live indices
    // can never share a slot — ordering with zero per-request allocation.
    std::uint64_t next_index = 0;
    std::uint64_t next_emit = 0;
    struct ReadyResponse {
      bool present = false;
      bool failed = false;
      std::vector<std::uint8_t> bytes;
    };
    std::vector<ReadyResponse> ready;  ///< power-of-two reorder ring
    std::size_t ready_count = 0;  ///< parked responses
    std::size_t ready_bytes = 0;  ///< parked resident_bytes() (reorder cap)
    std::size_t in_flight = 0;    ///< accepted, response not yet emitted

    double last_activity = 0.0;
    /// Last time the connection advanced real work: a complete frame
    /// parsed, a response emitted, or outgoing bytes accepted by the
    /// kernel. Unlike last_activity, trickled partial-frame bytes do NOT
    /// refresh it — the basis of the stall (slow-loris) timeout.
    double last_progress = 0.0;
    bool read_closed = false;       ///< peer EOF (or reading abandoned)
    bool close_after_flush = false; ///< close once `out` drains
    bool dead = false;              ///< hard socket error: drop now
    bool paused = false;            ///< backpressure state (edge-counted)

    // A framing violation's error frame, held back until the responses
    // for already-accepted requests have been written (ordering survives
    // even the connection's own teardown).
    bool has_pending_fatal = false;
    std::vector<std::uint8_t> pending_fatal;

    Connection(std::size_t max_payload, std::size_t ready_slots)
        : decoder(max_payload) {
      ready.resize(ready_slots);
    }

    ReadyResponse& ready_slot(std::uint64_t index) {
      return ready[index & (ready.size() - 1)];
    }

    void queue(std::vector<std::uint8_t> response) {
      out_bytes += resident_bytes(response);
      out.push_back(std::move(response));
    }

    /// Drop `n` written bytes from the front of `out`.
    void consume(std::size_t n) {
      n += out_front_sent;
      while (!out.empty() && n >= out.front().size()) {
        n -= out.front().size();
        out_bytes -= resident_bytes(out.front());
        out.pop_front();
      }
      out_front_sent = n;
    }

    std::size_t write_backlog() const { return out_bytes; }
    bool drained() const {
      return in_flight == 0 && ready_count == 0 && write_backlog() == 0 &&
             !has_pending_fatal;
    }
    /// Work is stuck on the *peer*: a partial frame it never finishes, or
    /// response bytes it never reads. In-flight solves don't count — that
    /// wait is the server's own latency, not the peer's misbehaviour.
    bool peer_work_pending() const {
      return decoder.buffered() > 0 || write_backlog() > 0;
    }
  };

  struct Completion {
    std::uint64_t conn_id = 0;
    std::uint64_t index = 0;
    bool failed = false;
    std::vector<std::uint8_t> bytes;
  };

  bool wants_read(const Connection& conn) const {
    return !conn.read_closed && !conn.close_after_flush &&
           !conn.has_pending_fatal && !conn.dead &&
           conn.in_flight < server_.config_.max_pending_per_connection &&
           conn.write_backlog() < server_.config_.max_write_backlog;
  }

  bool all_drained() const {
    return std::all_of(
        connections_.begin(), connections_.end(),
        [](const auto& entry) { return entry.second->drained(); });
  }

  void refresh_stats() {
    // The writev count lives reactor-thread-local; fold it into the shared
    // snapshot here so stats() readers never race the hot path.
    std::lock_guard<std::mutex> lock(stats_mutex_);
    stats_.connections_open = connections_.size();
    stats_.writev_calls = writev_calls_;
  }

  void poll_loop() {
    const ServerConfig& config = server_.config_;
    bool draining = false;
    double drain_deadline = 0.0;

    std::vector<pollfd> pfds;
    std::vector<std::uint64_t> pfd_conn;  // conn id per pollfd (0 = none)

    for (;;) {
      const bool stopping =
          server_.stop_requested_.load(std::memory_order_relaxed);
      if (stopping && !draining) {
        draining = true;
        drain_deadline = now_s() + std::max(0.0, config.drain_flush_timeout_s);
        listener_.reset();  // stop accepting; frees the port immediately
      }
      // Checked before polling: `stopping` is read once per pass, so a
      // stop that wakes an idle reactor is first seen here, after its wake
      // byte was consumed — polling again would sleep out the drain cap.
      if (draining && all_drained()) break;

      pfds.clear();
      pfd_conn.clear();
      pfds.push_back({wake_read_.get(), POLLIN, 0});
      pfd_conn.push_back(0);
      if (listener_.valid()) {
        pfds.push_back({listener_.get(), POLLIN, 0});
        pfd_conn.push_back(0);
      }
      const std::size_t first_conn_pfd = pfds.size();
      for (const auto& [id, conn] : connections_) {
        short events = 0;
        if (!stopping && wants_read(*conn)) events |= POLLIN;
        if (conn->write_backlog() > 0) events |= POLLOUT;
        pfds.push_back({conn->fd.get(), events, 0});
        pfd_conn.push_back(id);
      }

      int timeout_ms = -1;
      const double now = now_s();
      if (draining) {
        timeout_ms = static_cast<int>(
            std::clamp((drain_deadline - now) * 1e3, 0.0, 100.0));
      } else if (!connections_.empty()) {
        double next_deadline = 1e300;
        for (const auto& [id, conn] : connections_) {
          if (config.idle_timeout_s > 0.0) {
            next_deadline = std::min(
                next_deadline, conn->last_activity + config.idle_timeout_s);
          }
          if (config.stall_timeout_s > 0.0 && conn->peer_work_pending()) {
            next_deadline = std::min(
                next_deadline, conn->last_progress + config.stall_timeout_s);
          }
        }
        if (next_deadline < 1e300) {
          timeout_ms = static_cast<int>(
              std::clamp((next_deadline - now) * 1e3 + 1.0, 0.0, 60e3));
        }
      }

      int rc;
      do {
        rc = ::poll(pfds.data(), pfds.size(), timeout_ms);
      } while (rc < 0 && errno == EINTR);
      if (rc < 0) break;  // poll itself failed: unrecoverable loop state

      if (pfds[0].revents & POLLIN) {
        // Pipes don't speak recv(); drain wakeups with plain read().
        std::uint8_t drain_buf[256];
        while (::read(wake_read_.get(), drain_buf, sizeof drain_buf) > 0) {
        }
      }

      drain_completions();

      if (listener_.valid()) {
        for (std::size_t i = 1; i < first_conn_pfd; ++i) {
          if (pfds[i].fd == listener_.get() && (pfds[i].revents & POLLIN)) {
            accept_ready();
          }
        }
      }

      for (std::size_t i = first_conn_pfd; i < pfds.size(); ++i) {
        const auto it = connections_.find(pfd_conn[i]);
        if (it == connections_.end()) continue;
        Connection& conn = *it->second;
        if (pfds[i].revents & (POLLERR | POLLNVAL)) {
          conn.dead = true;
          continue;
        }
        if (pfds[i].revents & POLLIN) read_ready(conn);
        if ((pfds[i].revents & POLLHUP) && !(pfds[i].revents & POLLIN)) {
          conn.read_closed = true;
        }
      }

      // Unified service pass: order-preserving emission, further parsing
      // once capacity frees up, deferred framing-error frames, writes,
      // and close decisions.
      std::vector<std::uint64_t> to_close;
      const double service_now = now_s();
      for (auto& [id, conn_ptr] : connections_) {
        Connection& conn = *conn_ptr;
        if (conn.dead) {
          to_close.push_back(id);
          continue;
        }
        emit_ready(conn);
        if (!stopping && wants_read(conn)) parse_frames(conn);
        emit_ready(conn);
        // Reorder cap: everything still parked after emission is waiting
        // on an earlier, slower solve. A connection that accumulates more
        // parked response bytes than allowed is shed outright — the
        // alternative is unbounded memory held hostage by one stuck
        // request.
        if (conn.ready_bytes > config.max_reorder_bytes) {
          std::lock_guard<std::mutex> lock(stats_mutex_);
          ++stats_.reorder_evictions;
          to_close.push_back(id);
          continue;
        }
        if (conn.has_pending_fatal && conn.in_flight == 0 &&
            conn.ready_count == 0) {
          conn.queue(std::move(conn.pending_fatal));
          conn.has_pending_fatal = false;
          conn.close_after_flush = true;
        }
        if (conn.write_backlog() > 0 && !write_ready(conn)) {
          conn.dead = true;
          to_close.push_back(id);
          continue;
        }

        const bool backpressured =
            conn.in_flight >= config.max_pending_per_connection ||
            conn.write_backlog() >= config.max_write_backlog;
        if (backpressured && !conn.paused) {
          std::lock_guard<std::mutex> lock(stats_mutex_);
          ++stats_.backpressure_pauses;
        }
        conn.paused = backpressured;

        if (conn.close_after_flush && conn.write_backlog() == 0) {
          to_close.push_back(id);
          continue;
        }
        if (conn.read_closed && conn.drained()) {
          to_close.push_back(id);
          continue;
        }
        if (!stopping && config.idle_timeout_s > 0.0 && conn.drained() &&
            service_now - conn.last_activity > config.idle_timeout_s) {
          std::lock_guard<std::mutex> lock(stats_mutex_);
          ++stats_.connections_closed_idle;
          to_close.push_back(id);
          continue;
        }
        // Stall shed: the peer holds unfinished work (partial frame or an
        // unread response backlog) and has made no progress for the whole
        // stall window. Ordered responses of *other* connections are
        // untouched — only this connection is dropped, and its in-flight
        // completions are discarded harmlessly by drain_completions.
        if (!stopping && config.stall_timeout_s > 0.0 &&
            conn.peer_work_pending() &&
            service_now - conn.last_progress > config.stall_timeout_s) {
          std::lock_guard<std::mutex> lock(stats_mutex_);
          ++stats_.connections_closed_stalled;
          to_close.push_back(id);
        }
      }
      for (std::uint64_t id : to_close) close_connection(id);

      refresh_stats();
      if (draining && now_s() >= drain_deadline) break;
    }

    server_.open_connections_.fetch_sub(connections_.size(),
                                        std::memory_order_relaxed);
    connections_.clear();
    refresh_stats();
  }

  void accept_ready() {
    for (;;) {
      UniqueFd fd = tcp_accept(listener_.get());
      // EAGAIN or transient accept failure: try again next poll.
      if (!fd.valid()) return;
      // The connection cap is server-wide (the kernel spreads accepts
      // across reactors, so no single reactor sees them all).
      const std::size_t open =
          server_.open_connections_.fetch_add(1, std::memory_order_relaxed);
      if (open >= server_.config_.max_connections) {
        server_.open_connections_.fetch_sub(1, std::memory_order_relaxed);
        std::lock_guard<std::mutex> lock(stats_mutex_);
        ++stats_.connections_rejected;
        continue;
      }
      auto conn = std::make_unique<Connection>(server_.config_.max_payload,
                                               ready_slots_);
      conn->id = next_connection_id_++;
      conn->fd = std::move(fd);
      conn->tenant = server_.default_tenant_;
      conn->last_activity = now_s();
      conn->last_progress = conn->last_activity;
      {
        std::lock_guard<std::mutex> lock(stats_mutex_);
        ++stats_.connections_accepted;
      }
      connections_.emplace(conn->id, std::move(conn));
    }
  }

  bool read_ready(Connection& conn) {
    std::uint8_t buf[64 * 1024];
    // Per-iteration read cap so one firehose connection can't starve the
    // rest of the poll set.
    std::size_t budget = 1u << 20;
    while (budget > 0) {
      const IoResult r = recv_some(conn.fd.get(), buf, sizeof buf);
      if (r.status == IoStatus::kOk) {
        conn.decoder.feed({buf, r.bytes});
        conn.last_activity = now_s();
        {
          std::lock_guard<std::mutex> lock(stats_mutex_);
          stats_.bytes_received += r.bytes;
        }
        budget -= std::min(budget, r.bytes);
        continue;
      }
      if (r.status == IoStatus::kWouldBlock) break;
      if (r.status == IoStatus::kClosed) {
        conn.read_closed = true;
        break;
      }
      conn.dead = true;
      return false;
    }
    parse_frames(conn);
    return true;
  }

  /// A kError frame (at the peer's `version` for a version goodbye).
  static std::vector<std::uint8_t> make_error_frame(
      std::uint32_t seq, WireError code, std::string_view message,
      std::uint16_t version = kVersion) {
    std::vector<std::uint8_t> buf;
    ByteWriter w(buf);
    const std::size_t frame = begin_frame(w, FrameType::kError, seq, version);
    encode_error_payload_into(w, code, message);
    end_frame(w, frame);
    return buf;
  }

  /// A payload-less frame (kPong, kSessionClosed).
  static std::vector<std::uint8_t> make_empty_frame(FrameType type,
                                                    std::uint32_t seq) {
    std::vector<std::uint8_t> buf;
    ByteWriter w(buf);
    end_frame(w, begin_frame(w, type, seq));
    return buf;
  }

  void parse_frames(Connection& conn) {
    if (conn.has_pending_fatal || conn.close_after_flush || conn.dead) return;
    while (conn.in_flight < server_.config_.max_pending_per_connection) {
      // The view's payload lives in the decoder's storage and is consumed
      // in place by handle_frame before the loop advances — the decoder
      // guarantees it stays put until the next feed() or next() call.
      FrameView frame;
      const DecodeStatus status = conn.decoder.next(frame);
      if (status == DecodeStatus::kNeedMore) return;
      if (status == DecodeStatus::kFrame) {
        handle_frame(conn, frame);
        continue;
      }
      // The stream cannot be resynchronized. Answer what was already
      // accepted, then send one goodbye error frame and close. A version
      // mismatch is its own failure class: the goodbye names the problem,
      // is encoded at the *peer's* version when the peer is older (so a
      // v1 client can decode it), and lands in its own counter.
      if (status == DecodeStatus::kBadVersion) {
        {
          std::lock_guard<std::mutex> lock(stats_mutex_);
          ++stats_.connections_closed_version;
        }
        const std::uint16_t peer = conn.decoder.peer_version();
        const std::uint16_t goodbye_version =
            (peer >= kMinGoodbyeVersion && peer < kVersion) ? peer : kVersion;
        conn.pending_fatal = make_error_frame(
            0, WireError::kUnsupportedVersion,
            "unsupported protocol version " + std::to_string(peer) +
                " (server speaks v" + std::to_string(kVersion) + ")",
            goodbye_version);
      } else {
        {
          std::lock_guard<std::mutex> lock(stats_mutex_);
          ++stats_.connections_closed_protocol;
        }
        conn.pending_fatal =
            make_error_frame(0, WireError::kMalformedPayload,
                             decode_error_message(status));
      }
      conn.has_pending_fatal = true;
      conn.read_closed = true;
      return;
    }
  }

  void handle_frame(Connection& conn, const FrameView& frame) {
    conn.last_activity = now_s();
    conn.last_progress = conn.last_activity;
    {
      std::lock_guard<std::mutex> lock(stats_mutex_);
      ++stats_.frames_received;
    }
    switch (frame.type) {
      case FrameType::kPing:
        finish_local(conn, conn.next_index++, false,
                     make_empty_frame(FrameType::kPong, frame.seq));
        ++conn.in_flight;
        return;
      case FrameType::kSenseRequest: {
        std::string tag_id;
        RoundTrace round;
        if (!decode_sense_request(frame.payload, tag_id, round)) {
          conn.tenant->count_request(true);
          finish_local(conn, conn.next_index++, true,
                       make_error_frame(frame.seq, WireError::kMalformedPayload,
                                        "sense request payload did not "
                                        "parse"));
          ++conn.in_flight;
          return;
        }
        submit_solve(conn, frame.seq, std::move(tag_id), std::move(round));
        return;
      }
      case FrameType::kSessionSetup:
        handle_session_setup(conn, frame);
        return;
      case FrameType::kStreamPush:
        handle_stream_push(conn, frame);
        return;
      case FrameType::kSessionClose:
        // Idempotent: rebind to the default tenant and drop the session's
        // streaming state. Closing with no session open still gets its
        // kSessionClosed ack (but doesn't count as a close).
        conn.sensor.reset();
        conn.tracker.reset();
        conn.tracking = false;
        if (!conn.tenant->is_default()) {
          conn.tenant = server_.default_tenant_;
          std::lock_guard<std::mutex> lock(stats_mutex_);
          ++stats_.sessions_closed;
        }
        finish_local(conn, conn.next_index++, false,
                     make_empty_frame(FrameType::kSessionClosed, frame.seq));
        ++conn.in_flight;
        return;
      default:
        finish_local(conn, conn.next_index++, true,
                     make_error_frame(frame.seq, WireError::kUnsupportedType,
                                      "frame type not served"));
        ++conn.in_flight;
        return;
    }
  }

  void handle_session_setup(Connection& conn, const FrameView& frame) {
    SessionSetup setup;
    if (!decode_session_setup(frame.payload, setup)) {
      finish_local(conn, conn.next_index++, true,
                   make_error_frame(frame.seq, WireError::kMalformedPayload,
                                    "session setup payload did not parse"));
      ++conn.in_flight;
      return;
    }
    try {
      std::shared_ptr<DeploymentTenant> tenant = server_.registry_.acquire(
          setup.geometry, setup.calibrations, setup.enable_drift);
      conn.sensor.reset();  // new deployment, fresh streaming state
      conn.tracker.reset();
      conn.sensor_evictions_seen = 0;
      // Tracking is granted only when the operator opted the daemon in
      // (--track); a client asking on a non-tracking server just gets
      // tracking_enabled = false back, not an error.
      conn.tracking =
          setup.enable_tracking && server_.config_.tracking.enable;
      conn.tenant = std::move(tenant);
      conn.tenant->count_session_opened();
      {
        std::lock_guard<std::mutex> lock(stats_mutex_);
        ++stats_.sessions_opened;
      }
      SessionReady ready;
      ready.digest = conn.tenant->digest();
      ready.n_antennas = static_cast<std::uint32_t>(
          conn.tenant->prism().config().geometry.n_antennas());
      ready.drift_enabled = conn.tenant->prism().drift_enabled();
      ready.tracking_enabled = conn.tracking;
      std::vector<std::uint8_t> buf;
      ByteWriter w(buf);
      const std::size_t f = begin_frame(w, FrameType::kSessionReady, frame.seq);
      encode_session_ready_into(w, ready);
      end_frame(w, f);
      finish_local(conn, conn.next_index++, false, std::move(buf));
    } catch (const InvalidArgument& e) {
      // The shipped deployment itself is unusable (bad geometry, antenna
      // count mismatch between geometry and calibration).
      finish_local(conn, conn.next_index++, true,
                   make_error_frame(frame.seq, WireError::kMalformedPayload,
                                    e.what()));
    } catch (const Error& e) {
      // Registry-side refusal: every tenant slot pinned by a live
      // session (or a digest collision — equally "cannot admit").
      finish_local(conn, conn.next_index++, true,
                   make_error_frame(frame.seq, WireError::kRegistryFull,
                                    e.what()));
    }
    ++conn.in_flight;
  }

  void handle_stream_push(Connection& conn, const FrameView& frame) {
    double push_now = 0.0;
    // Reactor-owned decode scratch: resize() reuses element capacity, so
    // a steady stream of same-shaped pushes decodes with no allocation.
    std::vector<TagRead>& reads = stream_reads_scratch_;
    if (!decode_stream_push(frame.payload, push_now, reads)) {
      finish_local(conn, conn.next_index++, true,
                   make_error_frame(frame.seq, WireError::kMalformedPayload,
                                    "stream push payload did not parse"));
      ++conn.in_flight;
      return;
    }
    try {
      if (!conn.sensor) {
        conn.sensor = std::make_unique<StreamingSensor>(
            conn.tenant->prism(), server_.config_.stream, &server_.engine_);
        conn.sensor_evictions_seen = 0;
        if (conn.tracking) {
          conn.tracker = std::make_unique<track::TrackingEngine>(
              server_.config_.tracking);
          conn.sensor->attach_track_sink(conn.tracker.get());
        }
      }
      // Pushed inline on the reactor thread: StreamingSensor is
      // single-caller by contract, and one connection's pushes are
      // naturally serialized here. The engine still fans the completing
      // tags' solves across its pool (parallel_for from a non-worker
      // thread hands the chunks to the workers).
      conn.sensor->push(std::span<const TagRead>(reads));
      const std::vector<StreamedResult> results = conn.sensor->poll(push_now);
      const StreamingStats sensor_stats = conn.sensor->stats();
      const std::uint64_t evictions_total = sensor_stats.tag_evictions +
                                            sensor_stats.channel_evictions +
                                            sensor_stats.pool_cap_evictions;
      const std::uint64_t evicted =
          evictions_total - conn.sensor_evictions_seen;
      conn.sensor_evictions_seen = evictions_total;
      conn.tenant->count_stream(reads.size(), results.size());
      conn.tenant->count_stream_evictions(evicted);
      {
        std::lock_guard<std::mutex> lock(stats_mutex_);
        stats_.stream_reads += reads.size();
        stats_.stream_results += results.size();
        stats_.stream_evictions += evicted;
      }
      std::vector<std::uint8_t> response;
      ByteWriter w(response);
      const std::size_t results_frame =
          begin_frame(w, FrameType::kStreamResults, frame.seq);
      encode_stream_results_into(w, results);
      end_frame(w, results_frame);
      if (conn.tracking && conn.tracker) {
        // The poll already fed the tracker (TrackSink); drain its events
        // into a kTrackEvents frame encoded back-to-back in the same
        // response vector, so per-connection ordering holds with one
        // reorder slot.
        const std::vector<track::TrackEvent> events =
            conn.tracker->take_events();
        {
          std::lock_guard<std::mutex> lock(stats_mutex_);
          stats_.stream_track_events += events.size();
        }
        const std::size_t track_frame =
            begin_frame(w, FrameType::kTrackEvents, frame.seq);
        encode_track_events_into(w, events);
        end_frame(w, track_frame);
      }
      finish_local(conn, conn.next_index++, false, std::move(response));
    } catch (const InvalidArgument& e) {
      finish_local(conn, conn.next_index++, true,
                   make_error_frame(frame.seq, WireError::kMalformedPayload,
                                    e.what()));
    } catch (const std::exception& e) {
      finish_local(conn, conn.next_index++, true,
                   make_error_frame(frame.seq, WireError::kInternal,
                                    e.what()));
    }
    ++conn.in_flight;
  }

  void finish_local(Connection& conn, std::uint64_t index, bool failed,
                    std::vector<std::uint8_t> frame_bytes) {
    Connection::ReadyResponse& slot = conn.ready_slot(index);
    slot.present = true;
    slot.failed = failed;
    conn.ready_bytes += resident_bytes(frame_bytes);
    slot.bytes = std::move(frame_bytes);
    ++conn.ready_count;
  }

  void submit_solve(Connection& conn, std::uint32_t seq, std::string tag_id,
                    RoundTrace round) {
    const std::uint64_t conn_id = conn.id;
    const std::uint64_t index = conn.next_index++;
    ++conn.in_flight;
    {
      std::lock_guard<std::mutex> lock(jobs_mutex_);
      ++jobs_outstanding_;
    }
    // The tenant shared_ptr rides along so the deployment can't be
    // evicted (or the session rebound) out from under an in-flight solve.
    engine().submit([this, conn_id, index, seq,
                     tenant = conn.tenant, tag_id = std::move(tag_id),
                     round = std::move(round)]() mutable {
      bool failed = false;
      std::vector<std::uint8_t> bytes;
      try {
        const RfPrism& prism = tenant->prism();
        const SensingResult result = prism.sense(round, engine(), tag_id);
        // The tenant's prism owns the deployment's drift estimate (a no-op
        // without drift): every connection's senses and streams of this
        // deployment advance the same one.
        prism.observe_drift(result);
        ByteWriter w(bytes);
        const std::size_t f = begin_frame(w, FrameType::kSenseResponse, seq);
        encode_sense_response_into(w, result);
        end_frame(w, f);
      } catch (const InvalidArgument& e) {
        // Structurally wrong round (antenna count mismatch): the
        // client's fault, not ours. A fresh frame replaces whatever the
        // encode had written.
        failed = true;
        bytes = make_error_frame(seq, WireError::kMalformedPayload, e.what());
      } catch (const std::exception& e) {
        failed = true;
        bytes = make_error_frame(seq, WireError::kInternal, e.what());
      }
      tenant->count_request(failed);
      {
        std::lock_guard<std::mutex> lock(completions_mutex_);
        completions_.push_back(
            Completion{conn_id, index, failed, std::move(bytes)});
      }
      wake();
      {
        // Notify under the lock: the destructor destroys jobs_cv_ right
        // after its wait returns, and the wait can't return while we
        // still hold jobs_mutex_ — so the notify is sequenced before
        // teardown.
        std::lock_guard<std::mutex> lock(jobs_mutex_);
        --jobs_outstanding_;
        jobs_cv_.notify_all();
      }
    });
  }

  void drain_completions() {
    // Ping-pong with a reactor-owned scratch vector: the swap hands the
    // workers back the previously drained (cleared, capacity-retaining)
    // storage, so the steady state allocates nothing on either side.
    {
      std::lock_guard<std::mutex> lock(completions_mutex_);
      completions_.swap(completions_scratch_);
    }
    for (Completion& completion : completions_scratch_) {
      const auto it = connections_.find(completion.conn_id);
      if (it == connections_.end()) continue;  // connection died mid-solve
      finish_local(*it->second, completion.index, completion.failed,
                   std::move(completion.bytes));
    }
    completions_scratch_.clear();
  }

  void emit_ready(Connection& conn) {
    for (;;) {
      Connection::ReadyResponse& slot = conn.ready_slot(conn.next_emit);
      if (!slot.present) break;
      conn.ready_bytes -= resident_bytes(slot.bytes);
      const bool failed = slot.failed;
      conn.queue(std::move(slot.bytes));
      slot.present = false;
      slot.failed = false;
      --conn.ready_count;
      {
        std::lock_guard<std::mutex> lock(stats_mutex_);
        if (failed) {
          ++stats_.requests_failed;
        } else {
          ++stats_.requests_completed;
        }
      }
      ++conn.next_emit;
      --conn.in_flight;
      conn.last_activity = now_s();
      conn.last_progress = conn.last_activity;
    }
  }

  bool write_ready(Connection& conn) {
    // Scatter-gather drain: hand the kernel the queued responses as they
    // are — no flattening copy — up to 64 per call.
    constexpr std::size_t kMaxWriteIov = 64;
    struct iovec iov[kMaxWriteIov];
    while (conn.write_backlog() > 0) {
      std::size_t n_iov = 0;
      std::size_t skip = conn.out_front_sent;
      for (auto it = conn.out.begin();
           it != conn.out.end() && n_iov < kMaxWriteIov; ++it, ++n_iov) {
        iov[n_iov].iov_base = it->data() + skip;
        iov[n_iov].iov_len = it->size() - skip;
        skip = 0;
      }
      const IoResult r =
          writev_some(conn.fd.get(), iov, static_cast<int>(n_iov));
      if (r.status == IoStatus::kOk) {
        conn.consume(r.bytes);
        conn.last_progress = now_s();
        ++writev_calls_;
        std::lock_guard<std::mutex> lock(stats_mutex_);
        stats_.bytes_sent += r.bytes;
        continue;
      }
      if (r.status == IoStatus::kWouldBlock) return true;
      return false;  // hard error; caller drops the connection
    }
    return true;
  }

  void close_connection(std::uint64_t id) {
    if (connections_.erase(id) > 0) {
      server_.open_connections_.fetch_sub(1, std::memory_order_relaxed);
    }
  }

  SensingEngine& engine() { return server_.engine_; }

  Server& server_;
  UniqueFd listener_;
  UniqueFd wake_read_;
  UniqueFd wake_write_;

  std::uint64_t writev_calls_ = 0;
  std::size_t ready_slots_ = 1;
  /// Decode scratch for kStreamPush payloads, reused across frames.
  std::vector<TagRead> stream_reads_scratch_;

  std::map<std::uint64_t, std::unique_ptr<Connection>> connections_;
  std::uint64_t next_connection_id_ = 1;

  std::mutex completions_mutex_;
  std::vector<Completion> completions_;
  /// Ping-pong partner for completions_: drain swaps the queues so the
  /// steady state reuses both vectors' capacity instead of reallocating.
  std::vector<Completion> completions_scratch_;

  std::mutex jobs_mutex_;
  std::condition_variable jobs_cv_;
  std::size_t jobs_outstanding_ = 0;

  mutable std::mutex stats_mutex_;
  ServerStats stats_;
};

Server::Server(const RfPrism& prism, SensingEngine& engine,
               ServerConfig config)
    : prism_(prism), engine_(engine), config_(std::move(config)),
      registry_(config_.max_tenants) {
  if (config_.reactors == 0) config_.reactors = 1;
  default_tenant_ = registry_.set_default(prism_);

  // Reactor 0's listener resolves an ephemeral port; the rest of the
  // SO_REUSEPORT group binds the resolved port. With one reactor no flag
  // is needed (and the bind stays exclusive, exactly as before tenancy).
  const bool reuse_port = config_.reactors > 1;
  std::string error;
  UniqueFd first = tcp_listen(config_.bind_address, config_.port,
                              config_.backlog, &port_, &error, reuse_port);
  if (!first.valid()) {
    throw NetError("rfpd: " + error);
  }
  reactors_.push_back(std::make_unique<Reactor>(*this, std::move(first)));
  for (std::size_t i = 1; i < config_.reactors; ++i) {
    UniqueFd fd = tcp_listen(config_.bind_address, port_, config_.backlog,
                             nullptr, &error, true);
    if (!fd.valid()) {
      throw NetError("rfpd: " + error);
    }
    reactors_.push_back(std::make_unique<Reactor>(*this, std::move(fd)));
  }
}

Server::~Server() {
  stop();
  // reactors_ is destroyed after this returns (member order); each
  // Reactor's destructor waits for its outstanding worker jobs.
}

void Server::run() {
  {
    std::lock_guard<std::mutex> lock(join_mutex_);
    for (std::size_t i = 1; i < reactors_.size(); ++i) {
      reactor_threads_.emplace_back([reactor = reactors_[i].get()] {
        try {
          reactor->run();
        } catch (...) {
          // poll_loop only throws on allocation failure; nothing useful
          // to do beyond not crossing the thread boundary with it.
        }
      });
    }
  }
  reactors_[0]->run();
  join_reactor_threads();
}

void Server::start() {
  std::lock_guard<std::mutex> lock(join_mutex_);
  for (auto& reactor : reactors_) {
    reactor_threads_.emplace_back([r = reactor.get()] {
      try {
        r->run();
      } catch (...) {
      }
    });
  }
}

void Server::stop() {
  request_stop();
  join_reactor_threads();
}

void Server::join_reactor_threads() {
  std::lock_guard<std::mutex> lock(join_mutex_);
  for (std::thread& t : reactor_threads_) {
    if (t.joinable()) t.join();
  }
  reactor_threads_.clear();
}

void Server::request_stop() noexcept {
  stop_requested_.store(true, std::memory_order_relaxed);
  for (const auto& reactor : reactors_) reactor->wake();
}

ServerStats Server::stats() const {
  ServerStats out;
  for (const auto& reactor : reactors_) reactor->add_to(out);
  if (prism_.drift_enabled()) {
    const DriftStats drift = prism_.drift_stats();
    out.drift_rounds_observed = drift.rounds_observed;
    out.drift_outliers_rejected = drift.outliers_rejected;
    out.drift_alarms_raised = drift.alarms_raised;
    out.drift_alarms_active = drift.alarms_active;
    out.drift_ports_dropped = drift.ports_dropped;
  }
  out.tenants_resident = registry_.size();
  out.tenants_evicted = registry_.evictions();
  return out;
}

}  // namespace rfp::net
