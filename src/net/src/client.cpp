#include "rfp/net/client.hpp"

#include <algorithm>
#include <chrono>
#include <thread>

namespace rfp::net {

namespace {

[[noreturn]] void throw_error_frame(const Frame& frame) {
  WireError code = WireError::kInternal;
  std::string message;
  if (!decode_error_payload(frame.payload, code, message)) {
    message = "undecodable error frame";
  }
  throw RemoteError(static_cast<std::uint32_t>(code),
                    std::string(to_string(code)) + ": " + message);
}

}  // namespace

Client::Client(ClientConfig config)
    : config_(std::move(config)), decoder_(config_.max_payload) {
  std::string error = "no attempts made";
  double backoff = config_.retry_backoff_s;
  const int attempts = std::max(1, config_.connect_attempts);
  for (int attempt = 0; attempt < attempts; ++attempt) {
    if (attempt > 0 && backoff > 0.0) {
      std::this_thread::sleep_for(std::chrono::duration<double>(backoff));
      backoff *= 2.0;
    }
    fd_ = tcp_connect(config_.host, config_.port, config_.connect_timeout_s,
                      &error);
    if (fd_.valid()) return;
  }
  throw NetError("connect to " + config_.host + ":" +
                 std::to_string(config_.port) + " failed after " +
                 std::to_string(attempts) + " attempt(s): " + error);
}

void Client::send_bytes(std::span<const std::uint8_t> data) {
  if (!fd_.valid()) throw NetError("client is not connected");
  if (!send_all(fd_.get(), data.data(), data.size(), config_.io_timeout_s)) {
    fd_.reset();
    throw NetError("send failed or timed out");
  }
}

std::vector<std::uint8_t>& Client::send_scratch() {
  send_buffer_.clear();
  return send_buffer_;
}

void Client::send_frame(FrameType type, std::uint32_t seq,
                        std::span<const std::uint8_t> payload) {
  std::vector<std::uint8_t>& out = send_scratch();
  ByteWriter w(out);
  const std::size_t frame = begin_frame(w, type, seq);
  w.bytes(payload);
  end_frame(w, frame);
  send_bytes(out);
}

Frame Client::read_frame() {
  if (!fd_.valid()) throw NetError("client is not connected");
  for (;;) {
    Frame frame;
    const DecodeStatus status = decoder_.next(frame);
    if (status == DecodeStatus::kFrame) return frame;
    if (is_decode_error(status)) {
      fd_.reset();
      throw NetError("server sent a malformed frame");
    }
    std::uint8_t buf[64 * 1024];
    const IoResult r =
        recv_with_timeout(fd_.get(), buf, sizeof buf, config_.io_timeout_s);
    if (r.status == IoStatus::kOk) {
      decoder_.feed({buf, r.bytes});
      continue;
    }
    fd_.reset();
    if (r.status == IoStatus::kClosed) {
      throw NetError("server closed the connection");
    }
    if (r.status == IoStatus::kWouldBlock) {
      throw NetError("timed out waiting for a response");
    }
    throw NetError("socket error while reading response");
  }
}

std::uint32_t Client::send_sense(const RoundTrace& round,
                                 const std::string& tag_id) {
  const std::uint32_t seq = next_seq_++;
  // Encoded straight into the frame scratch behind its header — no
  // intermediate payload vector, so a pipelined burst is allocation-free
  // once the scratch has grown to the largest request.
  std::vector<std::uint8_t>& out = send_scratch();
  ByteWriter w(out);
  const std::size_t frame = begin_frame(w, FrameType::kSenseRequest, seq);
  encode_sense_request_into(w, tag_id, round);
  end_frame(w, frame);
  send_bytes(out);
  return seq;
}

void Client::reconnect() {
  fd_.reset();
  decoder_ = FrameDecoder(config_.max_payload);
  std::string error = "no attempts made";
  fd_ = tcp_connect(config_.host, config_.port, config_.connect_timeout_s,
                    &error);
  if (!fd_.valid()) {
    throw NetError("reconnect to " + config_.host + ":" +
                   std::to_string(config_.port) + " failed: " + error);
  }
  if (session_setup_payload_.has_value()) {
    // The session died with the old connection; replay the stored setup
    // so a retried request can never land on the wrong deployment.
    const std::uint32_t seq = next_seq_++;
    send_frame(FrameType::kSessionSetup, seq, *session_setup_payload_);
    const Frame frame = read_frame();
    if (frame.type == FrameType::kError) throw_error_frame(frame);
    if (frame.type != FrameType::kSessionReady || frame.seq != seq) {
      fd_.reset();
      throw NetError("session replay was not acknowledged");
    }
  }
}

void Client::run_with_retry(const std::function<void()>& op) {
  const int attempts = std::max(1, config_.request_attempts);
  const auto started = std::chrono::steady_clock::now();
  double backoff = std::max(0.0, config_.request_backoff_s);
  for (int attempt = 0;; ++attempt) {
    try {
      if (!fd_.valid()) reconnect();
      op();
      return;
    } catch (const RemoteError&) {
      // The server answered — the request was delivered and processed.
      throw;
    } catch (const NetError&) {
      if (attempt + 1 >= attempts) throw;
      if (config_.request_deadline_s > 0.0) {
        const double elapsed =
            std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          started)
                .count();
        // Retry only when the budget also covers the backoff sleep.
        if (elapsed + backoff >= config_.request_deadline_s) throw;
      }
      // Whatever partial state the wire is in, it cannot be resynced —
      // resend on a fresh connection.
      fd_.reset();
      decoder_ = FrameDecoder(config_.max_payload);
      if (backoff > 0.0) {
        std::this_thread::sleep_for(std::chrono::duration<double>(backoff));
        backoff = std::min(backoff * 2.0, config_.request_backoff_max_s);
      }
    }
  }
}

std::vector<std::uint8_t> Client::sense_raw_once(const RoundTrace& round,
                                                 const std::string& tag_id) {
  const std::uint32_t seq = send_sense(round, tag_id);
  Frame frame = read_frame();
  if (frame.seq != seq) {
    fd_.reset();
    throw NetError("response seq mismatch (protocol confusion)");
  }
  if (frame.type == FrameType::kError) throw_error_frame(frame);
  if (frame.type != FrameType::kSenseResponse) {
    fd_.reset();
    throw NetError("unexpected response frame type");
  }
  return std::move(frame.payload);
}

std::vector<std::uint8_t> Client::sense_raw(const RoundTrace& round,
                                            const std::string& tag_id) {
  std::vector<std::uint8_t> payload;
  run_with_retry([&] { payload = sense_raw_once(round, tag_id); });
  return payload;
}

SensingResult Client::sense(const RoundTrace& round,
                            const std::string& tag_id) {
  SensingResult result;
  run_with_retry([&] {
    const std::vector<std::uint8_t> payload = sense_raw_once(round, tag_id);
    if (!decode_sense_response(payload, result)) {
      fd_.reset();
      throw NetError("sense response payload did not parse");
    }
  });
  return result;
}

void Client::ping_once() {
  const std::uint32_t seq = next_seq_++;
  send_frame(FrameType::kPing, seq, {});
  const Frame frame = read_frame();
  if (frame.type != FrameType::kPong || frame.seq != seq) {
    fd_.reset();
    throw NetError("ping was not answered with a matching pong");
  }
}

void Client::ping() {
  run_with_retry([&] { ping_once(); });
}

SessionReady Client::setup_session_once(
    std::span<const std::uint8_t> payload) {
  const std::uint32_t seq = next_seq_++;
  send_frame(FrameType::kSessionSetup, seq, payload);
  const Frame frame = read_frame();
  if (frame.seq != seq) {
    fd_.reset();
    throw NetError("response seq mismatch (protocol confusion)");
  }
  if (frame.type == FrameType::kError) throw_error_frame(frame);
  if (frame.type != FrameType::kSessionReady) {
    fd_.reset();
    throw NetError("unexpected response frame type");
  }
  SessionReady ready;
  if (!decode_session_ready(frame.payload, ready)) {
    fd_.reset();
    throw NetError("session ready payload did not parse");
  }
  return ready;
}

SessionReady Client::setup_session(const DeploymentGeometry& geometry,
                                   const CalibrationDB& calibrations,
                                   bool enable_drift, bool enable_tracking) {
  SessionSetup setup;
  setup.geometry = geometry;
  setup.calibrations = calibrations;
  setup.enable_drift = enable_drift;
  setup.enable_tracking = enable_tracking;
  std::vector<std::uint8_t> payload = encode_session_setup(setup);
  // Forget any previous session before retrying: reconnect() must not
  // replay the deployment this call is about to replace.
  session_setup_payload_.reset();
  session_tracking_ = false;
  SessionReady ready;
  run_with_retry([&] { ready = setup_session_once(payload); });
  session_setup_payload_ = std::move(payload);
  // What the server *granted*, not what we asked: a non --track daemon
  // answers tracking_enabled = false and sends no kTrackEvents frames.
  session_tracking_ = ready.tracking_enabled;
  return ready;
}

std::vector<std::uint8_t> Client::push_stream_raw(
    std::span<const TagRead> reads, double now_s,
    std::vector<std::uint8_t>* track_payload) {
  // No transport retry: a resend would double-push the reads into the
  // server-side sensor. Callers that need at-most-once semantics across
  // reconnects own their own dedup.
  if (!fd_.valid()) reconnect();
  const std::uint32_t seq = next_seq_++;
  {
    std::vector<std::uint8_t>& out = send_scratch();
    ByteWriter w(out);
    const std::size_t frame = begin_frame(w, FrameType::kStreamPush, seq);
    encode_stream_push_into(w, now_s, reads);
    end_frame(w, frame);
    send_bytes(out);
  }
  Frame frame = read_frame();
  if (frame.seq != seq) {
    fd_.reset();
    throw NetError("response seq mismatch (protocol confusion)");
  }
  if (frame.type == FrameType::kError) throw_error_frame(frame);
  if (frame.type != FrameType::kStreamResults) {
    fd_.reset();
    throw NetError("unexpected response frame type");
  }
  std::vector<std::uint8_t> payload = std::move(frame.payload);
  if (session_tracking_) {
    // A tracking session answers every push with a second frame; it must
    // be drained even when the caller doesn't want it, or the next
    // response read would see it first.
    Frame track_frame = read_frame();
    if (track_frame.type == FrameType::kError) throw_error_frame(track_frame);
    if (track_frame.type != FrameType::kTrackEvents ||
        track_frame.seq != seq) {
      fd_.reset();
      throw NetError("tracking session push was not followed by its "
                     "track-events frame");
    }
    if (track_payload != nullptr) *track_payload = std::move(track_frame.payload);
  } else if (track_payload != nullptr) {
    track_payload->clear();
  }
  return payload;
}

std::vector<StreamedResult> Client::push_stream(
    std::span<const TagRead> reads, double now_s,
    std::vector<track::TrackEvent>* track_events) {
  std::vector<std::uint8_t> track_payload;
  const std::vector<std::uint8_t> payload =
      push_stream_raw(reads, now_s,
                      track_events != nullptr ? &track_payload : nullptr);
  std::vector<StreamedResult> results;
  if (!decode_stream_results(payload, results)) {
    fd_.reset();
    throw NetError("stream results payload did not parse");
  }
  if (track_events != nullptr) {
    track_events->clear();
    if (session_tracking_ && !decode_track_events(track_payload, *track_events)) {
      fd_.reset();
      throw NetError("track events payload did not parse");
    }
  }
  return results;
}

void Client::close_session() {
  session_setup_payload_.reset();
  session_tracking_ = false;
  if (!fd_.valid()) return;
  const std::uint32_t seq = next_seq_++;
  send_frame(FrameType::kSessionClose, seq, {});
  const Frame frame = read_frame();
  if (frame.type == FrameType::kError) throw_error_frame(frame);
  if (frame.type != FrameType::kSessionClosed || frame.seq != seq) {
    fd_.reset();
    throw NetError("session close was not acknowledged");
  }
}

}  // namespace rfp::net
