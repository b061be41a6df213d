/// rfp::net wire protocol: payload codecs round-trip bit-exactly, the
/// frame decoder tolerates arbitrary fragmentation, and every class of
/// malformed input (truncated, oversized, bad magic/version, bit-flipped)
/// is rejected with an error status — never an exception, never a crash.
/// The fuzz cases here are the ASan job's hunting ground.

#include "rfp/net/wire.hpp"

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "rfp/common/constants.hpp"
#include "rfp/common/rng.hpp"
#include "rfp/exp/testbed.hpp"
#include "rfp/io/binary_io.hpp"

namespace rfp {
namespace {

using net::DecodeStatus;
using net::Frame;
using net::FrameDecoder;
using net::FrameType;
using net::WireError;

RoundTrace sample_round(std::uint64_t trial = 1234) {
  static const Testbed bed;  // one testbed for the whole test binary
  Rng rng(mix_seed(trial, 0x31E));
  const TagState state = bed.tag_state(
      {0.3 + 1.4 * rng.uniform(), 0.3 + 1.4 * rng.uniform()},
      rng.uniform(0.0, kPi), "plastic");
  return bed.collect(state, trial);
}

SensingResult sample_result(std::uint64_t trial = 1234) {
  static const Testbed bed;
  return bed.prism().sense(sample_round(trial), bed.tag_id());
}

void expect_rounds_equal(const RoundTrace& a, const RoundTrace& b) {
  EXPECT_EQ(a.n_antennas, b.n_antennas);
  EXPECT_EQ(a.duration_s, b.duration_s);
  ASSERT_EQ(a.dwells.size(), b.dwells.size());
  for (std::size_t i = 0; i < a.dwells.size(); ++i) {
    EXPECT_EQ(a.dwells[i].antenna, b.dwells[i].antenna);
    EXPECT_EQ(a.dwells[i].channel, b.dwells[i].channel);
    EXPECT_EQ(a.dwells[i].frequency_hz, b.dwells[i].frequency_hz);
    EXPECT_EQ(a.dwells[i].start_time_s, b.dwells[i].start_time_s);
    EXPECT_EQ(a.dwells[i].phases, b.dwells[i].phases);
    EXPECT_EQ(a.dwells[i].rssi_dbm, b.dwells[i].rssi_dbm);
  }
}

TEST(WireCodec, RoundTripsRoundTraceBitExactly) {
  const RoundTrace round = sample_round();
  const std::vector<std::uint8_t> bytes = encode_round(round);
  RoundTrace decoded;
  ASSERT_TRUE(decode_round(bytes, decoded));
  expect_rounds_equal(round, decoded);
  // Determinism of the encoding itself: same round, same bytes.
  EXPECT_EQ(bytes, encode_round(decoded));
}

TEST(WireCodec, RoundTripsSensingResultBitExactly) {
  const SensingResult result = sample_result();
  ASSERT_TRUE(result.valid);  // a boring sample would prove nothing
  const std::vector<std::uint8_t> bytes = encode_result(result);
  SensingResult decoded;
  ASSERT_TRUE(decode_result(bytes, decoded));
  EXPECT_EQ(bytes, encode_result(decoded));
  EXPECT_EQ(result.position.x, decoded.position.x);
  EXPECT_EQ(result.alpha, decoded.alpha);
  EXPECT_EQ(result.kt, decoded.kt);
  EXPECT_EQ(result.material_signature, decoded.material_signature);
  ASSERT_EQ(result.lines.size(), decoded.lines.size());
  for (std::size_t i = 0; i < result.lines.size(); ++i) {
    EXPECT_EQ(result.lines[i].fit.slope, decoded.lines[i].fit.slope);
    EXPECT_EQ(result.lines[i].residual, decoded.lines[i].residual);
    EXPECT_EQ(result.lines[i].channel_inlier,
              decoded.lines[i].channel_inlier);
  }
}

TEST(WireCodec, RoundTripsRejectedResult) {
  SensingResult rejected;  // default: invalid, kRejected, kSolverFailure
  rejected.excluded_antennas = {1, 3};
  rejected.unhealthy_antennas = {3};
  const std::vector<std::uint8_t> bytes = encode_result(rejected);
  SensingResult decoded;
  ASSERT_TRUE(decode_result(bytes, decoded));
  EXPECT_FALSE(decoded.valid);
  EXPECT_EQ(decoded.grade, SensingGrade::kRejected);
  EXPECT_EQ(decoded.excluded_antennas, rejected.excluded_antennas);
  EXPECT_EQ(decoded.unhealthy_antennas, rejected.unhealthy_antennas);
}

TEST(WireCodec, SenseRequestRoundTrips) {
  const RoundTrace round = sample_round();
  const auto payload = net::encode_sense_request("tag-7", round);
  std::string tag_id;
  RoundTrace decoded;
  ASSERT_TRUE(net::decode_sense_request(payload, tag_id, decoded));
  EXPECT_EQ(tag_id, "tag-7");
  expect_rounds_equal(round, decoded);
}

TEST(WireCodec, ErrorPayloadRoundTrips) {
  const auto payload = net::encode_error_payload(
      WireError::kMalformedPayload, "no thanks");
  WireError code = WireError::kInternal;
  std::string message;
  ASSERT_TRUE(net::decode_error_payload(payload, code, message));
  EXPECT_EQ(code, WireError::kMalformedPayload);
  EXPECT_EQ(message, "no thanks");
}

TEST(WireCodec, RejectsTrailingBytes) {
  std::vector<std::uint8_t> bytes = encode_round(sample_round());
  bytes.push_back(0);
  RoundTrace decoded;
  EXPECT_FALSE(decode_round(bytes, decoded));
}

TEST(WireCodec, RejectsTruncatedPayloadAtEveryLength) {
  const SensingResult result = sample_result();
  const std::vector<std::uint8_t> bytes = encode_result(result);
  // Every strict prefix must fail cleanly (sampled stride keeps it fast).
  for (std::size_t n = 0; n < bytes.size(); n += 7) {
    SensingResult decoded;
    EXPECT_FALSE(decode_result({bytes.data(), n}, decoded)) << "len " << n;
  }
}

// ---- v2 session / streaming codecs -------------------------------------

TEST(WireCodec, SessionSetupRoundTripsBitExactly) {
  static const Testbed bed;
  net::SessionSetup setup;
  setup.geometry = bed.prism().config().geometry;
  setup.calibrations = bed.prism().calibrations();
  setup.enable_drift = true;

  const std::vector<std::uint8_t> bytes = net::encode_session_setup(setup);
  net::SessionSetup decoded;
  ASSERT_TRUE(net::decode_session_setup(bytes, decoded));
  EXPECT_TRUE(decoded.enable_drift);
  EXPECT_EQ(decoded.geometry.n_antennas(), setup.geometry.n_antennas());
  EXPECT_EQ(decoded.calibrations.n_tags(), setup.calibrations.n_tags());
  // Re-encoding the decoded deployment reproduces the exact bytes — the
  // property the registry's digest keying depends on.
  EXPECT_EQ(bytes, net::encode_session_setup(decoded));
}

TEST(WireCodec, SessionSetupRejectsTruncationAndTrailingBytes) {
  static const Testbed bed;
  net::SessionSetup setup;
  setup.geometry = bed.prism().config().geometry;
  setup.calibrations = bed.prism().calibrations();
  std::vector<std::uint8_t> bytes = net::encode_session_setup(setup);
  net::SessionSetup decoded;
  for (std::size_t n = 0; n < bytes.size(); n += 11) {
    EXPECT_FALSE(net::decode_session_setup({bytes.data(), n}, decoded))
        << "len " << n;
  }
  bytes.push_back(0);
  EXPECT_FALSE(net::decode_session_setup(bytes, decoded));
}

TEST(WireCodec, SessionReadyRoundTrips) {
  net::SessionReady ready;
  ready.digest = 0xDEADBEEFCAFEF00Dull;
  ready.n_antennas = 4;
  ready.drift_enabled = true;
  const auto bytes = net::encode_session_ready(ready);
  net::SessionReady decoded;
  ASSERT_TRUE(net::decode_session_ready(bytes, decoded));
  EXPECT_EQ(decoded.digest, ready.digest);
  EXPECT_EQ(decoded.n_antennas, 4u);
  EXPECT_TRUE(decoded.drift_enabled);
  EXPECT_EQ(bytes, net::encode_session_ready(decoded));
}

TEST(WireCodec, StreamPushRoundTripsBitExactly) {
  static const Testbed bed;
  const std::vector<TagRead> reads =
      round_to_reads(sample_round(555), "stream-tag");
  ASSERT_FALSE(reads.empty());

  const auto bytes = net::encode_stream_push(12.75, reads);
  double now_s = 0.0;
  std::vector<TagRead> decoded;
  ASSERT_TRUE(net::decode_stream_push(bytes, now_s, decoded));
  EXPECT_EQ(now_s, 12.75);
  ASSERT_EQ(decoded.size(), reads.size());
  for (std::size_t i = 0; i < reads.size(); ++i) {
    EXPECT_EQ(decoded[i].tag_id, reads[i].tag_id);
    EXPECT_EQ(decoded[i].antenna, reads[i].antenna);
    EXPECT_EQ(decoded[i].channel, reads[i].channel);
    EXPECT_EQ(decoded[i].frequency_hz, reads[i].frequency_hz);
    EXPECT_EQ(decoded[i].time_s, reads[i].time_s);
    EXPECT_EQ(decoded[i].phase, reads[i].phase);
    EXPECT_EQ(decoded[i].rssi_dbm, reads[i].rssi_dbm);
  }
  EXPECT_EQ(bytes, net::encode_stream_push(now_s, decoded));

  // An empty push (a pure clock tick) is legal and round-trips too.
  const auto tick = net::encode_stream_push(99.0, {});
  ASSERT_TRUE(net::decode_stream_push(tick, now_s, decoded));
  EXPECT_EQ(now_s, 99.0);
  EXPECT_TRUE(decoded.empty());
}

TEST(WireCodec, StreamResultsRoundTripBitExactly) {
  static const Testbed bed;
  StreamedResult emission;
  emission.tag_id = "tag-9";
  emission.completed_at_s = 3.5;
  emission.result = sample_result(77);
  StreamedResult rejected;
  rejected.tag_id = "tag-x";
  rejected.completed_at_s = 4.0;  // result stays default: invalid/kRejected
  const std::vector<StreamedResult> results = {emission, rejected};

  const auto bytes = net::encode_stream_results(results);
  std::vector<StreamedResult> decoded;
  ASSERT_TRUE(net::decode_stream_results(bytes, decoded));
  ASSERT_EQ(decoded.size(), 2u);
  EXPECT_EQ(decoded[0].tag_id, "tag-9");
  EXPECT_EQ(decoded[0].completed_at_s, 3.5);
  EXPECT_EQ(decoded[0].result.position.x, emission.result.position.x);
  EXPECT_EQ(decoded[0].result.kt, emission.result.kt);
  EXPECT_FALSE(decoded[1].result.valid);
  EXPECT_EQ(bytes, net::encode_stream_results(decoded));
}

TEST(WireCodec, TrackEventsRoundTripBitExactly) {
  track::TrackEvent confirm;
  confirm.tag_id = "pallet-7";
  confirm.time_s = 41.5;
  confirm.kind = track::TrackEventKind::kConfirm;
  confirm.label = track::MotionLabel::kMoving;
  confirm.grade = SensingGrade::kDegraded;
  confirm.fix_accepted = true;
  confirm.position = {0.75, 1.25};
  confirm.velocity = {0.004, -0.002};
  confirm.position_variance = 1.5e-3;
  confirm.angle_rad = 7.25;  // > pi: only the unwrapped track holds this
  confirm.rate_rad_s = -0.5;
  confirm.updates = 3;
  track::TrackEvent drop;  // all-default second event
  drop.tag_id = "pallet-8";
  const std::vector<track::TrackEvent> events = {confirm, drop};

  const auto bytes = net::encode_track_events(events);
  std::vector<track::TrackEvent> decoded;
  ASSERT_TRUE(net::decode_track_events(bytes, decoded));
  ASSERT_EQ(decoded.size(), 2u);
  EXPECT_EQ(decoded[0].tag_id, "pallet-7");
  EXPECT_EQ(decoded[0].time_s, 41.5);
  EXPECT_EQ(decoded[0].kind, track::TrackEventKind::kConfirm);
  EXPECT_EQ(decoded[0].label, track::MotionLabel::kMoving);
  EXPECT_EQ(decoded[0].grade, SensingGrade::kDegraded);
  EXPECT_TRUE(decoded[0].fix_accepted);
  EXPECT_EQ(decoded[0].position.x, 0.75);
  EXPECT_EQ(decoded[0].velocity.y, -0.002);
  EXPECT_EQ(decoded[0].position_variance, 1.5e-3);
  EXPECT_EQ(decoded[0].angle_rad, 7.25);
  EXPECT_EQ(decoded[0].rate_rad_s, -0.5);
  EXPECT_EQ(decoded[0].updates, 3u);
  EXPECT_EQ(decoded[1].tag_id, "pallet-8");
  EXPECT_EQ(decoded[1].kind, track::TrackEventKind::kUpdate);
  EXPECT_EQ(bytes, net::encode_track_events(decoded));

  // An empty event list (a quiet poll) is legal and round-trips too.
  const auto quiet = net::encode_track_events({});
  ASSERT_TRUE(net::decode_track_events(quiet, decoded));
  EXPECT_TRUE(decoded.empty());
}

TEST(WireCodec, TrackEventsRejectTruncationAndBadEnums) {
  track::TrackEvent event;
  event.tag_id = "t";
  std::vector<std::uint8_t> bytes =
      net::encode_track_events(std::vector<track::TrackEvent>{event});
  std::vector<track::TrackEvent> decoded;
  for (std::size_t n = 0; n < bytes.size(); ++n) {
    EXPECT_FALSE(net::decode_track_events({bytes.data(), n}, decoded))
        << "len " << n;
  }
  bytes.push_back(0);
  EXPECT_FALSE(net::decode_track_events(bytes, decoded));
  bytes.pop_back();

  // Layout: u32 count, u32 tag length, the 1-byte tag, f64 time, then
  // the kind/label/grade/accepted bytes. Out-of-range enums must reject.
  const std::size_t kind_at = 4 + 4 + 1 + 8;
  for (std::size_t off = 0; off < 4; ++off) {
    std::vector<std::uint8_t> mutated = bytes;
    mutated[kind_at + off] = 0xFF;
    EXPECT_FALSE(net::decode_track_events(mutated, decoded)) << "byte " << off;
  }
}

TEST(WireCodec, SessionOptionBitsCarryTracking) {
  static const Testbed bed;
  net::SessionSetup setup;
  setup.geometry = bed.prism().config().geometry;
  setup.calibrations = bed.prism().calibrations();
  setup.enable_drift = false;
  setup.enable_tracking = true;

  const auto bytes = net::encode_session_setup(setup);
  net::SessionSetup decoded;
  ASSERT_TRUE(net::decode_session_setup(bytes, decoded));
  EXPECT_FALSE(decoded.enable_drift);
  EXPECT_TRUE(decoded.enable_tracking);
  EXPECT_EQ(bytes, net::encode_session_setup(decoded));

  // Both option bits set at once survive the shared flag byte.
  setup.enable_drift = true;
  ASSERT_TRUE(
      net::decode_session_setup(net::encode_session_setup(setup), decoded));
  EXPECT_TRUE(decoded.enable_drift);
  EXPECT_TRUE(decoded.enable_tracking);

  net::SessionReady ready;
  ready.digest = 7;
  ready.n_antennas = 4;
  ready.tracking_enabled = true;
  net::SessionReady ready_decoded;
  ASSERT_TRUE(net::decode_session_ready(net::encode_session_ready(ready),
                                        ready_decoded));
  EXPECT_TRUE(ready_decoded.tracking_enabled);
  EXPECT_FALSE(ready_decoded.drift_enabled);
}

TEST(WireCodec, V2PayloadsRejectTruncationAtEveryLength) {
  const std::vector<TagRead> reads =
      round_to_reads(sample_round(556), "t");
  const auto push = net::encode_stream_push(1.0, reads);
  double now_s;
  std::vector<TagRead> decoded_reads;
  for (std::size_t n = 0; n < push.size(); n += 13) {
    EXPECT_FALSE(
        net::decode_stream_push({push.data(), n}, now_s, decoded_reads))
        << "push len " << n;
  }

  StreamedResult emission;
  emission.tag_id = "t";
  emission.result = sample_result(78);
  const auto results =
      net::encode_stream_results(std::vector<StreamedResult>{emission});
  std::vector<StreamedResult> decoded_results;
  for (std::size_t n = 0; n < results.size(); n += 13) {
    EXPECT_FALSE(net::decode_stream_results({results.data(), n},
                                            decoded_results))
        << "results len " << n;
  }
}

// ---- Frame layer -------------------------------------------------------

TEST(FrameDecoderTest, ParsesFramesFedOneByteAtATime) {
  const std::vector<std::uint8_t> payload = {1, 2, 3, 4, 5};
  const auto bytes = net::encode_frame(FrameType::kSenseRequest, 77, payload);
  FrameDecoder decoder;
  Frame frame;
  for (std::size_t i = 0; i + 1 < bytes.size(); ++i) {
    decoder.feed({&bytes[i], 1});
    ASSERT_EQ(decoder.next(frame), DecodeStatus::kNeedMore) << "byte " << i;
  }
  decoder.feed({&bytes.back(), 1});
  ASSERT_EQ(decoder.next(frame), DecodeStatus::kFrame);
  EXPECT_EQ(frame.type, FrameType::kSenseRequest);
  EXPECT_EQ(frame.seq, 77u);
  EXPECT_EQ(frame.payload, payload);
  EXPECT_EQ(decoder.next(frame), DecodeStatus::kNeedMore);
  EXPECT_EQ(decoder.buffered(), 0u);
}

TEST(FrameDecoderTest, ParsesSeveralFramesFromOneFeed) {
  std::vector<std::uint8_t> stream;
  for (std::uint32_t seq = 0; seq < 5; ++seq) {
    const std::vector<std::uint8_t> payload(seq, static_cast<std::uint8_t>(seq));
    net::append_frame(stream, FrameType::kPing, seq, payload);
  }
  FrameDecoder decoder;
  decoder.feed(stream);
  for (std::uint32_t seq = 0; seq < 5; ++seq) {
    Frame frame;
    ASSERT_EQ(decoder.next(frame), DecodeStatus::kFrame);
    EXPECT_EQ(frame.seq, seq);
    EXPECT_EQ(frame.payload.size(), seq);
  }
  Frame frame;
  EXPECT_EQ(decoder.next(frame), DecodeStatus::kNeedMore);
}

TEST(FrameDecoderTest, RejectsBadMagicAndStaysPoisoned) {
  auto bytes = net::encode_frame(FrameType::kPing, 1, {});
  bytes[0] ^= 0xFF;
  FrameDecoder decoder;
  decoder.feed(bytes);
  Frame frame;
  EXPECT_EQ(decoder.next(frame), DecodeStatus::kBadMagic);
  // A poisoned decoder never recovers, even when valid bytes follow.
  decoder.feed(net::encode_frame(FrameType::kPing, 2, {}));
  EXPECT_EQ(decoder.next(frame), DecodeStatus::kBadMagic);
}

TEST(FrameDecoderTest, RejectsVersionMismatch) {
  auto bytes = net::encode_frame(FrameType::kPing, 1, {});
  bytes[4] = 0x7F;  // version field, low byte
  FrameDecoder decoder;
  decoder.feed(bytes);
  Frame frame;
  EXPECT_EQ(decoder.next(frame), DecodeStatus::kBadVersion);
}

TEST(FrameDecoderTest, RecordsPeerVersionOnMismatch) {
  // The version-negotiation goodbye needs the *peer's* version: the
  // decoder must remember what the mismatched header carried.
  FrameDecoder decoder;
  EXPECT_EQ(decoder.peer_version(), 0u);  // nothing seen yet
  decoder.feed(net::encode_frame(FrameType::kPing, 1, {}, /*version=*/1));
  Frame frame;
  EXPECT_EQ(decoder.next(frame), DecodeStatus::kBadVersion);
  EXPECT_EQ(decoder.peer_version(), 1u);

  // And the error latches like every other framing failure.
  decoder.feed(net::encode_frame(FrameType::kPing, 2, {}));
  EXPECT_EQ(decoder.next(frame), DecodeStatus::kBadVersion);
  EXPECT_EQ(decoder.peer_version(), 1u);
}

TEST(FrameDecoderTest, CurrentVersionFrameCarriesConfiguredVersion) {
  // encode_frame's version parameter defaults to kVersion and lands in
  // the header bytes the decoder accepts.
  const auto bytes = net::encode_frame(FrameType::kPong, 3, {});
  EXPECT_EQ(bytes[4] | (bytes[5] << 8), net::kVersion);
  FrameDecoder decoder;
  decoder.feed(bytes);
  Frame frame;
  EXPECT_EQ(decoder.next(frame), DecodeStatus::kFrame);
  EXPECT_EQ(frame.type, FrameType::kPong);
}

TEST(FrameDecoderTest, RejectsOversizedDeclaredPayload) {
  // Header declaring a payload bigger than the decoder's ceiling must be
  // rejected from the header alone — no waiting for (or allocating) the
  // declared bytes.
  FrameDecoder decoder(1024);
  const std::vector<std::uint8_t> payload(2048, 0xAB);
  decoder.feed(net::encode_frame(FrameType::kSenseRequest, 9, payload));
  Frame frame;
  EXPECT_EQ(decoder.next(frame), DecodeStatus::kOversized);
}

TEST(FrameDecoderTest, FuzzedFramesNeverCrashTheDecoder) {
  // Deterministic mutation fuzz over a real request frame: truncations,
  // bit flips, random splices — fed in random-sized chunks. The decoder
  // and payload codecs must stay total: any outcome is fine except a
  // crash, a throw, or an out-of-bounds read (ASan's department).
  const RoundTrace round = sample_round(77);
  const auto payload = net::encode_sense_request("tag-1", round);
  const auto pristine =
      net::encode_frame(FrameType::kSenseRequest, 42, payload);

  Rng rng(mix_seed(2024, 0xF022));
  std::size_t frames = 0, errors = 0;
  for (int iteration = 0; iteration < 300; ++iteration) {
    std::vector<std::uint8_t> bytes = pristine;
    // Truncate or extend.
    if (rng.bernoulli(0.5)) {
      bytes.resize(rng.uniform_index(bytes.size() + 1));
    }
    // Flip a handful of random bits.
    const std::size_t flips = 1 + rng.uniform_index(8);
    for (std::size_t f = 0; f < flips && !bytes.empty(); ++f) {
      bytes[rng.uniform_index(bytes.size())] ^=
          static_cast<std::uint8_t>(1u << rng.uniform_index(8));
    }
    // Occasionally splice in garbage.
    if (rng.bernoulli(0.2)) {
      const std::size_t n = rng.uniform_index(64);
      for (std::size_t k = 0; k < n; ++k) {
        bytes.push_back(static_cast<std::uint8_t>(rng.uniform_index(256)));
      }
    }

    FrameDecoder decoder;
    std::size_t offset = 0;
    while (offset < bytes.size()) {
      const std::size_t chunk =
          std::min(bytes.size() - offset, 1 + rng.uniform_index(977));
      decoder.feed({bytes.data() + offset, chunk});
      offset += chunk;
      for (;;) {
        Frame frame;
        const DecodeStatus status = decoder.next(frame);
        if (status == DecodeStatus::kFrame) {
          ++frames;
          // Whatever survived framing gets thrown at the payload codecs.
          std::string tag;
          RoundTrace decoded_round;
          (void)net::decode_sense_request(frame.payload, tag, decoded_round);
          SensingResult decoded_result;
          (void)net::decode_sense_response(frame.payload, decoded_result);
          WireError code;
          std::string message;
          (void)net::decode_error_payload(frame.payload, code, message);
          continue;
        }
        if (net::is_decode_error(status)) ++errors;
        break;
      }
    }
  }
  // Sanity: the fuzz actually produced both parses and rejections.
  EXPECT_GT(frames, 0u);
  EXPECT_GT(errors, 0u);
}

// -- FrameView ---------------------------------------------------------------
// next(FrameView&) hands out spans into the decoder's own storage, valid
// until the decoder's next feed() or next(). These suites pin that the
// spans carry exactly the encoded payloads however the stream is chunked,
// and that compaction between frames never corrupts pending bytes. Every
// span is read byte-by-byte, so a stale pointer is an ASan report, not a
// silent pass.

std::vector<std::uint8_t> patterned(std::size_t n, std::uint8_t seed) {
  std::vector<std::uint8_t> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<std::uint8_t>(seed + i * 131u);
  }
  return out;
}

TEST(FrameViewTest, PayloadMatchesCopyingApiExactly) {
  std::vector<std::uint8_t> stream;
  for (std::uint32_t seq = 0; seq < 6; ++seq) {
    net::append_frame(stream, FrameType::kStreamPush, seq,
                      patterned(seq * 37, static_cast<std::uint8_t>(seq)));
  }
  FrameDecoder by_view;
  FrameDecoder by_copy;
  by_view.feed(stream);
  by_copy.feed(stream);
  for (;;) {
    net::FrameView view;
    Frame frame;
    const DecodeStatus vs = by_view.next(view);
    const DecodeStatus fs = by_copy.next(frame);
    ASSERT_EQ(vs, fs);
    if (vs != DecodeStatus::kFrame) break;
    EXPECT_EQ(view.type, frame.type);
    EXPECT_EQ(view.seq, frame.seq);
    ASSERT_EQ(view.payload.size(), frame.payload.size());
    EXPECT_TRUE(std::equal(view.payload.begin(), view.payload.end(),
                           frame.payload.begin()));
  }
}

TEST(FrameViewTest, CompactionBetweenFramesPreservesPendingBytes) {
  // Many KB-sized frames parsed from one feed: the dead-prefix erase
  // triggers repeatedly mid-stream, and every later payload must still
  // read back exactly.
  std::vector<std::uint8_t> stream;
  constexpr std::uint32_t kFrames = 64;
  for (std::uint32_t seq = 0; seq < kFrames; ++seq) {
    net::append_frame(stream, FrameType::kStreamPush, seq,
                      patterned(1024 + seq, static_cast<std::uint8_t>(seq)));
  }
  FrameDecoder decoder;
  decoder.feed(stream);
  for (std::uint32_t seq = 0; seq < kFrames; ++seq) {
    net::FrameView view;
    ASSERT_EQ(decoder.next(view), DecodeStatus::kFrame) << "frame " << seq;
    EXPECT_EQ(view.seq, seq);
    const std::vector<std::uint8_t> expect =
        patterned(1024 + seq, static_cast<std::uint8_t>(seq));
    ASSERT_EQ(view.payload.size(), expect.size());
    EXPECT_TRUE(std::equal(view.payload.begin(), view.payload.end(),
                           expect.begin()));
  }
  net::FrameView view;
  EXPECT_EQ(decoder.next(view), DecodeStatus::kNeedMore);
  EXPECT_EQ(decoder.buffered(), 0u);
}

TEST(FrameViewTest, FuzzedFeedsDecodeEveryFrame) {
  // Randomized interleaving of feed() and next(FrameView&): each view is
  // read in full right after next() and compared against the payload it
  // was encoded from, and every frame comes out once, in order. Chunk
  // sizes are drawn to straddle every boundary — sub-header, mid-payload,
  // multi-frame.
  Rng rng(mix_seed(2026, 0xFEED));
  std::size_t frames = 0;
  for (int iteration = 0; iteration < 200; ++iteration) {
    std::vector<std::vector<std::uint8_t>> payloads;
    std::vector<std::uint8_t> stream;
    const std::size_t n_frames = 1 + rng.uniform_index(8);
    for (std::size_t f = 0; f < n_frames; ++f) {
      payloads.push_back(
          patterned(rng.uniform_index(4096), static_cast<std::uint8_t>(f)));
      net::append_frame(stream, FrameType::kStreamPush,
                        static_cast<std::uint32_t>(f), payloads.back());
    }
    FrameDecoder decoder;
    std::size_t decoded = 0;
    const auto check = [&](const net::FrameView& view) {
      ASSERT_LT(decoded, payloads.size()) << "iteration " << iteration;
      EXPECT_EQ(view.seq, decoded);
      const std::vector<std::uint8_t>& expect = payloads[decoded++];
      ASSERT_EQ(view.payload.size(), expect.size());
      ASSERT_TRUE(std::equal(view.payload.begin(), view.payload.end(),
                             expect.begin()))
          << "iteration " << iteration;
    };
    net::FrameView view;
    std::size_t offset = 0;
    while (offset < stream.size()) {
      const std::size_t chunk =
          std::min(stream.size() - offset, 1 + rng.uniform_index(1500));
      decoder.feed({stream.data() + offset, chunk});
      offset += chunk;
      // At most one next() per feed, so later feeds land while earlier
      // frames are still buffered.
      if (decoder.next(view) == DecodeStatus::kFrame) check(view);
    }
    // Drain what the one-next-per-feed pacing left buffered.
    while (decoder.next(view) == DecodeStatus::kFrame) check(view);
    EXPECT_EQ(decoded, n_frames) << "iteration " << iteration;
    EXPECT_EQ(decoder.buffered(), 0u);
    frames += decoded;
  }
  EXPECT_GT(frames, 200u);
}

}  // namespace
}  // namespace rfp
