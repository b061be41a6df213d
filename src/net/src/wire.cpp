#include "rfp/net/wire.hpp"

#include <bit>
#include <cstring>

#include "rfp/common/bytes.hpp"
#include "rfp/io/binary_io.hpp"

namespace rfp::net {

const char* to_string(WireError code) {
  switch (code) {
    case WireError::kMalformedPayload:
      return "malformed payload";
    case WireError::kUnsupportedType:
      return "unsupported frame type";
    case WireError::kInternal:
      return "internal server error";
    case WireError::kUnsupportedVersion:
      return "unsupported protocol version";
    case WireError::kRegistryFull:
      return "deployment registry full";
  }
  return "unknown";
}

void append_frame(std::vector<std::uint8_t>& out, FrameType type,
                  std::uint32_t seq, std::span<const std::uint8_t> payload,
                  std::uint16_t version) {
  ByteWriter w(out);
  w.u32(kMagic);
  w.u16(version);
  w.u16(static_cast<std::uint16_t>(type));
  w.u32(seq);
  w.u32(static_cast<std::uint32_t>(payload.size()));
  w.bytes(payload);
}

std::vector<std::uint8_t> encode_frame(FrameType type, std::uint32_t seq,
                                       std::span<const std::uint8_t> payload,
                                       std::uint16_t version) {
  std::vector<std::uint8_t> out;
  out.reserve(kHeaderSize + payload.size());
  append_frame(out, type, seq, payload, version);
  return out;
}

std::size_t begin_frame(ByteWriter& w, FrameType type, std::uint32_t seq,
                        std::uint16_t version) {
  w.u32(kMagic);
  w.u16(version);
  w.u16(static_cast<std::uint16_t>(type));
  w.u32(seq);
  const std::size_t token = w.size();
  w.u32(0);  // payload length, patched by end_frame
  return token;
}

void end_frame(ByteWriter& w, std::size_t token) {
  w.patch_u32(token, static_cast<std::uint32_t>(w.size() - token - 4));
}

bool is_decode_error(DecodeStatus status) {
  return status != DecodeStatus::kFrame && status != DecodeStatus::kNeedMore;
}

void FrameDecoder::feed(std::span<const std::uint8_t> data) {
  if (is_decode_error(failed_)) return;  // poisoned: drop further input
  if (head_ > 0 && buffer_.size() + data.size() > buffer_.capacity()) {
    // About to grow: drop the dead prefix first so a fat connection
    // doesn't carry it through the reallocation.
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<std::ptrdiff_t>(head_));
    head_ = 0;
  }
  buffer_.insert(buffer_.end(), data.begin(), data.end());
}

DecodeStatus FrameDecoder::next(FrameView& out) {
  if (is_decode_error(failed_)) return failed_;
  // Compact once the dead prefix dominates, so a long-lived connection
  // doesn't hold on to every byte it ever received.
  if (head_ > 4096 && head_ * 2 > buffer_.size()) {
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<std::ptrdiff_t>(head_));
    head_ = 0;
  }
  const std::span<const std::uint8_t> pending(buffer_.data() + head_,
                                              buffer_.size() - head_);
  if (pending.size() < kHeaderSize) return DecodeStatus::kNeedMore;

  ByteReader r(pending);
  const std::uint32_t magic = r.u32();
  const std::uint16_t version = r.u16();
  const std::uint16_t type = r.u16();
  const std::uint32_t seq = r.u32();
  const std::uint32_t payload_len = r.u32();
  if (magic != kMagic) return failed_ = DecodeStatus::kBadMagic;
  if (version != kVersion) {
    peer_version_ = version;
    return failed_ = DecodeStatus::kBadVersion;
  }
  if (payload_len > max_payload_) return failed_ = DecodeStatus::kOversized;
  if (pending.size() < kHeaderSize + payload_len) {
    return DecodeStatus::kNeedMore;
  }

  out.type = static_cast<FrameType>(type);
  out.seq = seq;
  out.payload = pending.subspan(kHeaderSize, payload_len);
  head_ += kHeaderSize + payload_len;
  return DecodeStatus::kFrame;
}

DecodeStatus FrameDecoder::next(Frame& out) {
  FrameView view;
  const DecodeStatus status = next(view);
  if (status != DecodeStatus::kFrame) return status;
  out.type = view.type;
  out.seq = view.seq;
  out.payload.assign(view.payload.begin(), view.payload.end());
  return DecodeStatus::kFrame;
}

void encode_sense_request_into(ByteWriter& w, std::string_view tag_id,
                               const RoundTrace& round) {
  w.str(tag_id);
  append_round(w, round);
}

std::vector<std::uint8_t> encode_sense_request(std::string_view tag_id,
                                               const RoundTrace& round) {
  std::vector<std::uint8_t> out;
  ByteWriter w(out);
  encode_sense_request_into(w, tag_id, round);
  return out;
}

bool decode_sense_request(std::span<const std::uint8_t> payload,
                          std::string& tag_id, RoundTrace& round) {
  ByteReader r(payload);
  tag_id = r.str();
  return r.ok() && read_round(r, round) && r.exhausted();
}

void encode_sense_response_into(ByteWriter& w, const SensingResult& result) {
  append_result(w, result);
}

std::vector<std::uint8_t> encode_sense_response(const SensingResult& result) {
  return encode_result(result);
}

bool decode_sense_response(std::span<const std::uint8_t> payload,
                           SensingResult& result) {
  return decode_result(payload, result);
}

void encode_error_payload_into(ByteWriter& w, WireError code,
                               std::string_view message) {
  w.u32(static_cast<std::uint32_t>(code));
  w.str(message);
}

std::vector<std::uint8_t> encode_error_payload(WireError code,
                                               std::string_view message) {
  std::vector<std::uint8_t> out;
  ByteWriter w(out);
  encode_error_payload_into(w, code, message);
  return out;
}

bool decode_error_payload(std::span<const std::uint8_t> payload,
                          WireError& code, std::string& message) {
  ByteReader r(payload);
  code = static_cast<WireError>(r.u32());
  message = r.str();
  return r.exhausted();
}

namespace {

// The session option-flag byte: one bit per opt-in feature. The layout
// predates tracking (it was a 0/1 drift boolean), so bit 0 keeps that
// meaning and old encodings decode unchanged.
constexpr std::uint8_t kOptionDrift = 1u << 0;
constexpr std::uint8_t kOptionTracking = 1u << 1;
constexpr std::uint8_t kOptionMask = kOptionDrift | kOptionTracking;

}  // namespace

void encode_session_setup_into(ByteWriter& w, const SessionSetup& setup) {
  append_geometry(w, setup.geometry);
  append_calibration_db(w, setup.calibrations);
  w.u8((setup.enable_drift ? kOptionDrift : 0) |
       (setup.enable_tracking ? kOptionTracking : 0));
}

std::vector<std::uint8_t> encode_session_setup(const SessionSetup& setup) {
  std::vector<std::uint8_t> out;
  ByteWriter w(out);
  encode_session_setup_into(w, setup);
  return out;
}

bool decode_session_setup(std::span<const std::uint8_t> payload,
                          SessionSetup& setup) {
  ByteReader r(payload);
  if (!read_geometry(r, setup.geometry)) return false;
  if (!read_calibration_db(r, setup.calibrations)) return false;
  const std::uint8_t options = r.u8();
  if (!r.ok() || (options & ~kOptionMask) != 0) return false;
  setup.enable_drift = (options & kOptionDrift) != 0;
  setup.enable_tracking = (options & kOptionTracking) != 0;
  return r.exhausted();
}

void encode_session_ready_into(ByteWriter& w, const SessionReady& ready) {
  w.u64(ready.digest);
  w.u32(ready.n_antennas);
  w.u8((ready.drift_enabled ? kOptionDrift : 0) |
       (ready.tracking_enabled ? kOptionTracking : 0));
}

std::vector<std::uint8_t> encode_session_ready(const SessionReady& ready) {
  std::vector<std::uint8_t> out;
  ByteWriter w(out);
  encode_session_ready_into(w, ready);
  return out;
}

bool decode_session_ready(std::span<const std::uint8_t> payload,
                          SessionReady& ready) {
  ByteReader r(payload);
  ready.digest = r.u64();
  ready.n_antennas = r.u32();
  const std::uint8_t options = r.u8();
  if (!r.ok() || (options & ~kOptionMask) != 0) return false;
  ready.drift_enabled = (options & kOptionDrift) != 0;
  ready.tracking_enabled = (options & kOptionTracking) != 0;
  return r.exhausted();
}

namespace {

// Minimum encoded size of one StreamRead: tag-id length prefix + two u32
// indices + four doubles.
constexpr std::size_t kReadMinBytes = 4 + 4 + 4 + 4 * 8;

}  // namespace

void encode_stream_push_into(ByteWriter& w, double now_s,
                             std::span<const TagRead> reads) {
  // Exact reserve: big read batches are the protocol's bulkiest frames.
  std::size_t total = 8 + 4;
  for (const TagRead& read : reads) total += kReadMinBytes + read.tag_id.size();
  w.reserve(total);
  w.f64(now_s);
  w.u32(static_cast<std::uint32_t>(reads.size()));
  for (const TagRead& read : reads) {
    w.str(read.tag_id);
    w.u32(static_cast<std::uint32_t>(read.antenna));
    w.u32(static_cast<std::uint32_t>(read.channel));
    w.f64(read.frequency_hz);
    w.f64(read.time_s);
    w.f64(read.phase);
    w.f64(read.rssi_dbm);
  }
}

std::vector<std::uint8_t> encode_stream_push(double now_s,
                                             std::span<const TagRead> reads) {
  std::vector<std::uint8_t> out;
  ByteWriter w(out);
  encode_stream_push_into(w, now_s, reads);
  return out;
}

bool decode_stream_push(std::span<const std::uint8_t> payload, double& now_s,
                        std::vector<TagRead>& reads) {
  // Hot path: a reactor parses every kStreamPush burst inline on its
  // thread, so this decoder pays one bounds check per read (the tag
  // length prefix, then the 40-byte fixed block) instead of one per
  // field, and assigns the tag in place so each slot's string capacity
  // survives across bursts.
  constexpr std::size_t kFixedBytes = kReadMinBytes - 4;  // sans length
  const std::uint8_t* p = payload.data();
  const std::uint8_t* const end = p + payload.size();
  if (static_cast<std::size_t>(end - p) < 12) return false;
  std::uint64_t now_bits;
  std::memcpy(&now_bits, p, 8);
  now_s = std::bit_cast<double>(now_bits);
  std::uint32_t n;
  std::memcpy(&n, p + 8, 4);
  p += 12;
  if (static_cast<std::size_t>(end - p) <
      std::uint64_t{n} * kReadMinBytes) {
    return false;
  }
  reads.resize(n);
  const auto load_u32 = [](const std::uint8_t* q) {
    std::uint32_t v;
    std::memcpy(&v, q, 4);
    return v;
  };
  const auto load_f64 = [](const std::uint8_t* q) {
    std::uint64_t v;
    std::memcpy(&v, q, 8);
    return std::bit_cast<double>(v);
  };
  for (TagRead& read : reads) {
    if (static_cast<std::size_t>(end - p) < 4) return false;
    const std::uint32_t len = load_u32(p);
    p += 4;
    if (static_cast<std::size_t>(end - p) < std::uint64_t{len} + kFixedBytes) {
      return false;
    }
    read.tag_id.assign(reinterpret_cast<const char*>(p), len);
    p += len;
    read.antenna = load_u32(p);
    read.channel = load_u32(p + 4);
    read.frequency_hz = load_f64(p + 8);
    read.time_s = load_f64(p + 16);
    read.phase = load_f64(p + 24);
    read.rssi_dbm = load_f64(p + 32);
    p += kFixedBytes;
  }
  return p == end;
}

void encode_stream_results_into(ByteWriter& w,
                                std::span<const StreamedResult> results) {
  w.u32(static_cast<std::uint32_t>(results.size()));
  for (const StreamedResult& emission : results) {
    w.str(emission.tag_id);
    w.f64(emission.completed_at_s);
    append_result(w, emission.result);
  }
}

std::vector<std::uint8_t> encode_stream_results(
    std::span<const StreamedResult> results) {
  std::vector<std::uint8_t> out;
  ByteWriter w(out);
  encode_stream_results_into(w, results);
  return out;
}

bool decode_stream_results(std::span<const std::uint8_t> payload,
                           std::vector<StreamedResult>& results) {
  ByteReader r(payload);
  // Minimum per emission: tag-id length prefix + completed_at_s + the
  // result's three leading flag bytes.
  const std::uint32_t n = r.u32();
  if (!r.ok() || r.remaining() < n * (4 + 8 + 3)) return false;
  results.resize(n);
  for (StreamedResult& emission : results) {
    emission.tag_id = r.str();
    emission.completed_at_s = r.f64();
    if (!r.ok() || !read_result(r, emission.result)) return false;
  }
  return r.exhausted();
}

void encode_track_events_into(ByteWriter& w,
                              std::span<const track::TrackEvent> events) {
  // Per event: id prefix + id bytes + time + 4 flag bytes + 7 doubles +
  // the updates counter.
  std::size_t total = 4;
  for (const track::TrackEvent& ev : events) {
    total += 4 + ev.tag_id.size() + 8 + 4 + 7 * 8 + 8;
  }
  w.reserve(total);
  w.u32(static_cast<std::uint32_t>(events.size()));
  for (const track::TrackEvent& ev : events) {
    w.str(ev.tag_id);
    w.f64(ev.time_s);
    w.u8(static_cast<std::uint8_t>(ev.kind));
    w.u8(static_cast<std::uint8_t>(ev.label));
    w.u8(static_cast<std::uint8_t>(ev.grade));
    w.u8(ev.fix_accepted ? 1 : 0);
    w.f64(ev.position.x);
    w.f64(ev.position.y);
    w.f64(ev.velocity.x);
    w.f64(ev.velocity.y);
    w.f64(ev.position_variance);
    w.f64(ev.angle_rad);
    w.f64(ev.rate_rad_s);
    w.u64(ev.updates);
  }
}

std::vector<std::uint8_t> encode_track_events(
    std::span<const track::TrackEvent> events) {
  std::vector<std::uint8_t> out;
  ByteWriter w(out);
  encode_track_events_into(w, events);
  return out;
}

bool decode_track_events(std::span<const std::uint8_t> payload,
                         std::vector<track::TrackEvent>& events) {
  ByteReader r(payload);
  const std::uint32_t n = r.u32();
  // Minimum per event: tag-id length prefix + time + 4 flag bytes +
  // seven doubles + the updates counter.
  if (!r.ok() || r.remaining() < n * (4 + 8 + 4 + 7 * 8 + 8)) return false;
  events.resize(n);
  for (track::TrackEvent& ev : events) {
    ev.tag_id = r.str();
    ev.time_s = r.f64();
    const std::uint8_t kind = r.u8();
    const std::uint8_t label = r.u8();
    const std::uint8_t grade = r.u8();
    const std::uint8_t accepted = r.u8();
    if (!r.ok() ||
        kind > static_cast<std::uint8_t>(track::TrackEventKind::kDrop) ||
        label > static_cast<std::uint8_t>(track::MotionLabel::kRotating) ||
        grade > static_cast<std::uint8_t>(SensingGrade::kRejected) ||
        accepted > 1) {
      return false;
    }
    ev.kind = static_cast<track::TrackEventKind>(kind);
    ev.label = static_cast<track::MotionLabel>(label);
    ev.grade = static_cast<SensingGrade>(grade);
    ev.fix_accepted = accepted != 0;
    ev.position.x = r.f64();
    ev.position.y = r.f64();
    ev.velocity.x = r.f64();
    ev.velocity.y = r.f64();
    ev.position_variance = r.f64();
    ev.angle_rad = r.f64();
    ev.rate_rad_s = r.f64();
    ev.updates = r.u64();
    if (!r.ok()) return false;
  }
  return r.exhausted();
}

}  // namespace rfp::net
