#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "rfp/common/bytes.hpp"
#include "rfp/common/error.hpp"
#include "rfp/core/calibration.hpp"
#include "rfp/core/streaming.hpp"
#include "rfp/core/types.hpp"
#include "rfp/rfsim/reader.hpp"
#include "rfp/track/tracking_engine.hpp"

/// \file wire.hpp
/// The rfpd wire protocol: versioned, length-prefixed binary frames.
///
/// Frame layout (all fields little-endian, fixed width):
///
///   offset  size  field
///   0       4     magic        0x4E504652 ("RFPN" as bytes on the wire)
///   4       2     version      protocol version (currently 2)
///   6       2     type         FrameType
///   8       4     seq          caller-chosen sequence id, echoed back
///   12      4     payload_len  bytes of payload following the header
///   16      ...   payload      type-specific, see below
///
/// Payloads (encoded with rfp/io/binary_io + ByteWriter primitives):
///   kSenseRequest    tag_id (u32-length-prefixed string) + RoundTrace
///   kSenseResponse   SensingResult (all fields, diagnostics included)
///   kError           u32 WireError code + u32-length-prefixed message
///   kPing / kPong    empty
///   kSessionSetup    DeploymentGeometry + CalibrationDB + option flags —
///                    the v2 replacement for "both sides reconstruct the
///                    same seed-keyed Testbed": the client *ships the
///                    deployment* and the server registers it as a tenant
///   kSessionReady    u64 deployment digest + u32 n_antennas + flags
///   kStreamPush      f64 clock + a batch of StreamReads for the
///                    connection's per-session StreamingSensor
///   kStreamResults   the emissions completed by that push's poll()
///   kTrackEvents     the trajectory events that poll produced — sent
///                    immediately after each kStreamResults on sessions
///                    that negotiated tracking (SessionSetup bit 1)
///   kSessionClose / kSessionClosed   empty (rebinds to the default
///                    deployment; connection close also tears down)
///
/// The decoder is incremental (tolerates arbitrary read fragmentation)
/// and total: malformed input yields an error status, never an exception
/// — nothing in this header throws on untrusted bytes. Responses echo the
/// request's seq, and a server answers each connection's requests in the
/// order they arrived, so seq is a client-side sanity check rather than a
/// matching mechanism.
///
/// Version negotiation: every frame carries the version. A peer speaking
/// a different version is answered with one kError frame carrying
/// WireError::kUnsupportedVersion — encoded *at the peer's version* when
/// that version is older (the v1 error payload layout is unchanged, so a
/// v1 client can decode why it was refused) — followed by a clean close.

namespace rfp::net {

/// Transport/protocol failure on the local side (connect, timeout,
/// unexpected close, malformed peer bytes).
class NetError : public Error {
 public:
  using Error::Error;
};

/// The server answered with an error frame.
class RemoteError : public NetError {
 public:
  RemoteError(std::uint32_t code, const std::string& message)
      : NetError(message), code_(code) {}
  std::uint32_t code() const { return code_; }

 private:
  std::uint32_t code_;
};

inline constexpr std::uint32_t kMagic = 0x4E504652;  // "RFPN"
inline constexpr std::uint16_t kVersion = 2;
/// Oldest version whose kError payload layout we still know how to emit
/// (for the kUnsupportedVersion goodbye frame).
inline constexpr std::uint16_t kMinGoodbyeVersion = 1;
inline constexpr std::size_t kHeaderSize = 16;

/// Default ceiling on a frame's payload. A full 4-antenna 50-channel
/// round is ~100 KiB, so 8 MiB leaves generous headroom while keeping a
/// hostile length field from committing the server to a huge buffer.
inline constexpr std::size_t kDefaultMaxPayload = 8u << 20;

enum class FrameType : std::uint16_t {
  kSenseRequest = 1,
  kSenseResponse = 2,
  kError = 3,
  kPing = 4,
  kPong = 5,
  // -- v2 ----------------------------------------------------------------
  kSessionSetup = 6,
  kSessionReady = 7,
  kStreamPush = 8,
  kStreamResults = 9,
  kSessionClose = 10,
  kSessionClosed = 11,
  kTrackEvents = 12,
};

/// Error codes carried by kError frames.
enum class WireError : std::uint32_t {
  kMalformedPayload = 1,    ///< frame parsed, payload didn't
  kUnsupportedType = 2,     ///< frame type the server doesn't serve
  kInternal = 3,            ///< the solve threw; message carries what()
  kUnsupportedVersion = 4,  ///< peer speaks a protocol version we don't
  kRegistryFull = 5,        ///< every tenant slot is pinned by a session
};

const char* to_string(WireError code);

/// One decoded frame, payload copied out. The serving hot path uses
/// FrameView instead; this stays as the convenient owning form for tests
/// and for client APIs that hand payload bytes to the caller.
struct Frame {
  FrameType type = FrameType::kError;
  std::uint32_t seq = 0;
  std::vector<std::uint8_t> payload;
};

/// One decoded frame whose payload points into the decoder's own storage
/// — no copy. Valid until that decoder's next feed() or next() call.
struct FrameView {
  FrameType type = FrameType::kError;
  std::uint32_t seq = 0;
  std::span<const std::uint8_t> payload;
};

/// Append a complete frame (header + payload) to `out`. `version` exists
/// for the version-mismatch goodbye path (and for tests impersonating old
/// peers); everything else uses the default.
void append_frame(std::vector<std::uint8_t>& out, FrameType type,
                  std::uint32_t seq, std::span<const std::uint8_t> payload,
                  std::uint16_t version = kVersion);

std::vector<std::uint8_t> encode_frame(FrameType type, std::uint32_t seq,
                                       std::span<const std::uint8_t> payload,
                                       std::uint16_t version = kVersion);

/// Zero-copy frame serialization: write the 16-byte header with a
/// placeholder payload length, encode the payload in place behind it with
/// the encode_*_into overloads below, then patch the length. Returns the
/// token end_frame needs. Frames nest back-to-back in one buffer (the
/// kStreamResults + kTrackEvents pair rides a single response buffer).
std::size_t begin_frame(ByteWriter& w, FrameType type, std::uint32_t seq,
                        std::uint16_t version = kVersion);
void end_frame(ByteWriter& w, std::size_t token);

/// Outcome of one FrameDecoder::next() call. Everything from kBadMagic
/// down is unrecoverable for the stream: the decoder latches the error
/// and the connection should be torn down.
enum class DecodeStatus {
  kFrame,       ///< a complete frame was produced
  kNeedMore,    ///< no complete frame buffered yet
  kBadMagic,    ///< stream is not speaking this protocol
  kBadVersion,  ///< protocol version mismatch (see peer_version())
  kOversized,   ///< declared payload exceeds the configured ceiling
};

/// True for the statuses that poison the stream.
bool is_decode_error(DecodeStatus status);

/// Incremental frame parser over an arbitrarily fragmented byte stream.
/// feed() buffers; next() pops at most one complete frame per call. After
/// any error status the decoder stays failed (a framing error leaves no
/// way to resynchronize a length-prefixed stream).
///
/// Storage is one compacting vector: live bytes sit at [head_, size), and
/// the dead prefix is erased once it dominates (in next()) or before the
/// vector grows (in feed()). next(FrameView&) yields payload spans into
/// that storage, valid until the decoder's next feed() or next() call —
/// either may move the bytes. The serving loop consumes each view before
/// asking for the next one, so it reads each payload byte in place, with
/// no per-frame allocation.
class FrameDecoder {
 public:
  explicit FrameDecoder(std::size_t max_payload = kDefaultMaxPayload)
      : max_payload_(max_payload) {}

  void feed(std::span<const std::uint8_t> data);
  /// Zero-copy: payload points into decoder storage (lifetime above).
  DecodeStatus next(FrameView& out);
  /// Copying form (tests, client convenience paths).
  DecodeStatus next(Frame& out);

  /// Bytes buffered but not yet consumed by next().
  std::size_t buffered() const { return buffer_.size() - head_; }

  /// After kBadVersion: the version field the peer sent (the magic was
  /// right, so this is a real protocol speaker of another generation —
  /// the server uses it to phrase and version the goodbye frame).
  /// 0 before any version mismatch.
  std::uint16_t peer_version() const { return peer_version_; }

 private:
  std::size_t max_payload_;
  std::vector<std::uint8_t> buffer_;
  std::size_t head_ = 0;  ///< first unconsumed byte in buffer_
  DecodeStatus failed_ = DecodeStatus::kNeedMore;  // latched error, if any
  std::uint16_t peer_version_ = 0;
};

// -- Payload codecs ------------------------------------------------------
// Encoders trust their input; decoders are total (false on malformed,
// including trailing bytes). Every encode_* has an encode_*_into overload
// appending the identical bytes through a caller-owned ByteWriter: the
// server writes each payload straight behind its frame header (between
// begin_frame/end_frame) instead of materializing a payload vector per
// response. The vector-returning forms are thin wrappers over the _into
// forms, so the wire bytes cannot diverge.

void encode_sense_request_into(ByteWriter& w, std::string_view tag_id,
                               const RoundTrace& round);
std::vector<std::uint8_t> encode_sense_request(std::string_view tag_id,
                                               const RoundTrace& round);
bool decode_sense_request(std::span<const std::uint8_t> payload,
                          std::string& tag_id, RoundTrace& round);

void encode_sense_response_into(ByteWriter& w, const SensingResult& result);
std::vector<std::uint8_t> encode_sense_response(const SensingResult& result);
bool decode_sense_response(std::span<const std::uint8_t> payload,
                           SensingResult& result);

void encode_error_payload_into(ByteWriter& w, WireError code,
                               std::string_view message);
std::vector<std::uint8_t> encode_error_payload(WireError code,
                                               std::string_view message);
bool decode_error_payload(std::span<const std::uint8_t> payload,
                          WireError& code, std::string& message);

/// What a kSessionSetup frame ships: the deployment itself. The solver
/// configuration is deliberately *not* on the wire — the server grafts
/// the shipped geometry/calibrations onto its own solver settings, so one
/// daemon's tenants are comparable and a client cannot pick expensive
/// solver modes for the fleet.
struct SessionSetup {
  DeploymentGeometry geometry;
  CalibrationDB calibrations;
  /// Ask the server to run a per-tenant drift estimator (drift.hpp) fed
  /// by this tenant's rounds. Tenants that share a digest share the
  /// estimator.
  bool enable_drift = false;
  /// Ask the server to run a per-connection TrackingEngine over this
  /// session's stream emissions; each kStreamResults is then followed by
  /// one kTrackEvents frame. The server only grants this when rfpd runs
  /// with --track (see SessionReady::tracking_enabled). Shares the
  /// option-flag byte with enable_drift (bit 0 drift, bit 1 tracking),
  /// so the payload layout is unchanged when off.
  bool enable_tracking = false;
};

void encode_session_setup_into(ByteWriter& w, const SessionSetup& setup);
std::vector<std::uint8_t> encode_session_setup(const SessionSetup& setup);
bool decode_session_setup(std::span<const std::uint8_t> payload,
                          SessionSetup& setup);

/// kSessionReady: the server's acknowledgement.
struct SessionReady {
  std::uint64_t digest = 0;  ///< deployment digest (registry tenant key)
  std::uint32_t n_antennas = 0;
  bool drift_enabled = false;
  /// Tracking granted: the session's pushes will each be answered with
  /// kStreamResults + kTrackEvents. False when the client did not ask or
  /// the server does not run with --track.
  bool tracking_enabled = false;
};

void encode_session_ready_into(ByteWriter& w, const SessionReady& ready);
std::vector<std::uint8_t> encode_session_ready(const SessionReady& ready);
bool decode_session_ready(std::span<const std::uint8_t> payload,
                          SessionReady& ready);

/// kStreamPush: a batch of raw reads plus the client's clock (the
/// per-session StreamingSensor is polled at exactly this time, which
/// keeps emissions deterministic and lets tests replay streams).
void encode_stream_push_into(ByteWriter& w, double now_s,
                             std::span<const TagRead> reads);
std::vector<std::uint8_t> encode_stream_push(double now_s,
                                             std::span<const TagRead> reads);
bool decode_stream_push(std::span<const std::uint8_t> payload, double& now_s,
                        std::vector<TagRead>& reads);

/// kStreamResults: every emission completed by the push's poll().
void encode_stream_results_into(ByteWriter& w,
                                std::span<const StreamedResult> results);
std::vector<std::uint8_t> encode_stream_results(
    std::span<const StreamedResult> results);
bool decode_stream_results(std::span<const std::uint8_t> payload,
                           std::vector<StreamedResult>& results);

/// kTrackEvents: the trajectory events one poll produced, in emission
/// order. Also the canonical byte encoding the determinism tests compare.
void encode_track_events_into(ByteWriter& w,
                              std::span<const track::TrackEvent> events);
std::vector<std::uint8_t> encode_track_events(
    std::span<const track::TrackEvent> events);
bool decode_track_events(std::span<const std::uint8_t> payload,
                         std::vector<track::TrackEvent>& events);

}  // namespace rfp::net
