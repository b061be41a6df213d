/// rfp::net serving loop, end to end over loopback: concurrent clients
/// get responses byte-identical to the direct sense_batch path (degraded
/// and rejected grades included), responses stay in per-connection
/// request order under pipelining and backpressure, malformed input gets
/// an error frame or a close (never a crash), graceful shutdown drains
/// every accepted request and returns as soon as it has, and idle
/// connections are reaped.

#include "rfp/net/server.hpp"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "rfp/common/constants.hpp"
#include "rfp/common/rng.hpp"
#include "rfp/common/socket.hpp"
#include "rfp/exp/testbed.hpp"
#include "rfp/net/client.hpp"
#include "rfp/rfsim/faults.hpp"

namespace rfp {
namespace {

using net::Client;
using net::ClientConfig;
using net::Frame;
using net::FrameType;
using net::NetError;
using net::RemoteError;
using net::Server;
using net::ServerConfig;
using net::WireError;

/// One deployment per test binary: the 4-antenna fault-tolerance rig, so
/// faulted rounds can come back degraded rather than only rejected.
const Testbed& shared_bed() {
  static const Testbed bed([] {
    TestbedConfig config;
    config.n_antennas = 4;
    return config;
  }());
  return bed;
}

ClientConfig client_config(std::uint16_t port) {
  ClientConfig config;
  config.port = port;
  config.io_timeout_s = 60.0;  // solves on a loaded CI box can be slow
  return config;
}

/// Mixed corpus in the test_engine.cpp mold: clean rounds plus heavily
/// faulted ones, so the wire carries full, degraded, and rejected grades.
std::vector<RoundTrace> make_corpus(const Testbed& bed, std::size_t n_clean,
                                    std::size_t n_faulted) {
  std::vector<RoundTrace> corpus;
  Rng rng(mix_seed(11, 0x4E54));
  const auto materials = paper_materials();
  const FaultInjector injector(
      FaultProfile::scaled(0.8, mix_seed(11, 0xFA17)));
  for (std::size_t k = 0; k < n_clean + n_faulted; ++k) {
    const Vec2 p{0.3 + 1.4 * rng.uniform(), 0.3 + 1.4 * rng.uniform()};
    const TagState state = bed.tag_state(p, rng.uniform(0.0, kPi),
                                         materials[k % materials.size()]);
    RoundTrace round = bed.collect(state, 6000 + k);
    if (k >= n_clean) round = injector.apply(round, 6000 + k);
    corpus.push_back(std::move(round));
  }
  return corpus;
}

TEST(NetServer, ByteIdenticalToDirectBatchAcrossConcurrentClients) {
  const Testbed& bed = shared_bed();
  const std::vector<RoundTrace> corpus = make_corpus(bed, 8, 8);

  SensingEngine engine(4);
  const std::vector<SensingResult> reference =
      bed.prism().sense_batch(corpus, engine, bed.tag_id());

  // The contract below compares raw wire bytes, so make sure the corpus
  // actually spans grades first — identical-on-trivial proves nothing.
  bool saw_non_full = false;
  for (const SensingResult& r : reference) {
    if (r.grade != SensingGrade::kFull) saw_non_full = true;
  }
  ASSERT_TRUE(saw_non_full) << "fault injection produced only full grades";

  std::vector<std::vector<std::uint8_t>> expected;
  expected.reserve(reference.size());
  for (const SensingResult& r : reference) {
    expected.push_back(net::encode_sense_response(r));
  }

  Server server(bed.prism(), engine);
  server.start();

  constexpr std::size_t kClients = 4;
  std::vector<std::string> failures(kClients);
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      try {
        Client client(client_config(server.port()));
        // Each client walks the whole corpus from a different offset, so
        // the same rounds are in flight on several connections at once.
        for (std::size_t i = 0; i < corpus.size(); ++i) {
          const std::size_t k = (i + c * 3) % corpus.size();
          const std::vector<std::uint8_t> raw =
              client.sense_raw(corpus[k], bed.tag_id());
          if (raw != expected[k]) {
            failures[c] = "response bytes differ for round " +
                          std::to_string(k);
            return;
          }
        }
      } catch (const std::exception& e) {
        failures[c] = e.what();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (std::size_t c = 0; c < kClients; ++c) {
    EXPECT_EQ(failures[c], "") << "client " << c;
  }

  server.stop();
  const net::ServerStats stats = server.stats();
  EXPECT_EQ(stats.connections_accepted, kClients);
  EXPECT_EQ(stats.requests_completed, kClients * corpus.size());
  EXPECT_EQ(stats.requests_failed, 0u);
}

TEST(NetServer, DecodedResultsMatchDirectSense) {
  // Same loop through the typed surface (decode on the client side), and
  // a sanity check that the decoded grades match the direct path's.
  const Testbed& bed = shared_bed();
  const std::vector<RoundTrace> corpus = make_corpus(bed, 2, 4);

  SensingEngine engine(2);
  Server server(bed.prism(), engine);
  server.start();

  Client client(client_config(server.port()));
  for (std::size_t k = 0; k < corpus.size(); ++k) {
    const SensingResult direct = bed.prism().sense(corpus[k], bed.tag_id());
    const SensingResult remote = client.sense(corpus[k], bed.tag_id());
    EXPECT_EQ(remote.valid, direct.valid) << "round " << k;
    EXPECT_EQ(remote.grade, direct.grade) << "round " << k;
    EXPECT_EQ(remote.position.x, direct.position.x) << "round " << k;
    EXPECT_EQ(remote.kt, direct.kt) << "round " << k;
  }
}

TEST(NetServer, PingPong) {
  const Testbed& bed = shared_bed();
  SensingEngine engine(1);
  Server server(bed.prism(), engine);
  server.start();

  Client client(client_config(server.port()));
  client.ping();
  client.ping();  // and the connection is still good afterwards
}

TEST(NetServer, PipelinedResponsesArriveInRequestOrder) {
  // Backpressure transparency: pipeline far past max_pending_per_connection
  // and check every response arrives, in order, with matching seq. The
  // pauses are observable in the stats but invisible to the protocol.
  const Testbed& bed = shared_bed();
  const std::vector<RoundTrace> corpus = make_corpus(bed, 2, 2);

  SensingEngine engine(2);
  ServerConfig config;
  config.max_pending_per_connection = 2;
  Server server(bed.prism(), engine, config);
  server.start();

  Client client(client_config(server.port()));
  constexpr std::size_t kRequests = 16;
  std::vector<std::uint32_t> seqs;
  for (std::size_t k = 0; k < kRequests; ++k) {
    seqs.push_back(client.send_sense(corpus[k % corpus.size()], bed.tag_id()));
  }
  for (std::size_t k = 0; k < kRequests; ++k) {
    const Frame frame = client.read_frame();
    ASSERT_EQ(frame.type, FrameType::kSenseResponse) << "response " << k;
    EXPECT_EQ(frame.seq, seqs[k]) << "response " << k;
  }

  server.stop();
  EXPECT_GT(server.stats().backpressure_pauses, 0u);
}

TEST(NetServer, BackloggedResponsesSurvivePartialWrites) {
  // Pipeline several MB of pings and read no pong until the server has
  // answered them all. A wide in-flight window lets it answer in bulk, so
  // the answers outgrow the kernel's socket buffers: writev comes back
  // short and the rest waits in the connection's write queue (under
  // max_write_backlog, so the server keeps reading and the send
  // completes). Every pong must then arrive whole, once, in request order.
  const Testbed& bed = shared_bed();
  SensingEngine engine(1);
  ServerConfig config;
  config.max_pending_per_connection = 1u << 16;
  Server server(bed.prism(), engine, config);
  server.start();

  constexpr std::uint32_t kPings = 400'000;  // 6.4 MB each way
  std::vector<std::uint8_t> burst;
  burst.reserve(std::size_t{kPings} * net::kHeaderSize);
  for (std::uint32_t k = 0; k < kPings; ++k) {
    net::append_frame(burst, FrameType::kPing, k, {});
  }
  Client client(client_config(server.port()));
  client.send_bytes(burst);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (server.stats().requests_completed < kPings) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "server never answered all " << kPings << " pings";
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  for (std::uint32_t k = 0; k < kPings; ++k) {
    const Frame frame = client.read_frame();
    ASSERT_EQ(frame.type, FrameType::kPong) << "response " << k;
    ASSERT_EQ(frame.seq, k) << "response " << k;
  }

  server.stop();
  EXPECT_EQ(server.stats().bytes_sent, burst.size());
}

TEST(NetServer, UnreadErrorBacklogPausesReadingWithinTheCap) {
  // A peer pipelines senses the server rejects (antenna count mismatch)
  // and reads nothing. Every answer is a small kError frame from a
  // worker. max_write_backlog bounds the memory the queued answers hold,
  // so once the kernel's buffers are full the server must stop reading
  // after at most cap / (frame bytes + the vector holding them) more
  // answers, plus the requests already in flight.
  const Testbed& bed = shared_bed();
  SensingEngine engine(1);
  ServerConfig config;
  config.max_write_backlog = 64u << 10;
  Server server(bed.prism(), engine, config);
  server.start();

  RoundTrace round;
  round.n_antennas = bed.prism().config().geometry.n_antennas() + 1;
  std::vector<std::uint8_t> chunk;  // 256 identical requests
  const std::vector<std::uint8_t> request = net::encode_sense_request(
      bed.tag_id(), round);
  for (std::uint32_t k = 0; k < 256; ++k) {
    net::append_frame(chunk, FrameType::kSenseRequest, k, request);
  }

  std::string error;
  UniqueFd fd = tcp_connect("127.0.0.1", server.port(), 10.0, &error);
  ASSERT_TRUE(fd.valid()) << error;
  ASSERT_TRUE(set_nonblocking(fd.get()));

  // Send the chunk over and over until the server stops reading: the
  // socket buffers fill both ways, the send would block, and the server's
  // frame count stands still.
  using Clock = std::chrono::steady_clock;
  const auto deadline = Clock::now() + std::chrono::seconds(60);
  auto last_change = Clock::now();
  std::uint64_t last_frames = 0;
  std::size_t offset = 0;
  for (;;) {
    const IoResult r =
        send_some(fd.get(), chunk.data() + offset, chunk.size() - offset);
    if (r.status == IoStatus::kOk) {
      offset = (offset + r.bytes) % chunk.size();
      continue;
    }
    ASSERT_EQ(r.status, IoStatus::kWouldBlock);
    const std::uint64_t frames = server.stats().frames_received;
    if (frames != last_frames) {
      last_frames = frames;
      last_change = Clock::now();
    } else if (Clock::now() - last_change > std::chrono::milliseconds(500)) {
      break;
    }
    ASSERT_LT(Clock::now(), deadline) << "the server never stopped reading";
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const net::ServerStats paused = server.stats();

  // Every answer is the same frame; read the first to learn its size.
  net::FrameDecoder decoder;
  Frame first;
  while (decoder.next(first) != net::DecodeStatus::kFrame) {
    std::uint8_t buf[256];
    const IoResult r = recv_with_timeout(fd.get(), buf, sizeof buf, 10.0);
    ASSERT_EQ(r.status, IoStatus::kOk);
    decoder.feed({buf, r.bytes});
  }
  ASSERT_EQ(first.type, FrameType::kError);
  WireError code;
  std::string message;
  ASSERT_TRUE(net::decode_error_payload(first.payload, code, message));
  EXPECT_EQ(code, WireError::kMalformedPayload) << message;
  const std::size_t frame_bytes = net::kHeaderSize + first.payload.size();

  EXPECT_EQ(paused.requests_completed, 0u);
  const std::uint64_t written = paused.bytes_sent / frame_bytes;
  ASSERT_GE(paused.requests_failed, written);
  const std::uint64_t queued = paused.requests_failed - written;
  // More answers wait than could be in flight: the write backlog, not the
  // in-flight cap, is what stopped the reads.
  EXPECT_GT(queued, config.max_pending_per_connection);
  EXPECT_LE(queued, config.max_write_backlog /
                            (frame_bytes + sizeof(std::vector<std::uint8_t>)) +
                        1 + config.max_pending_per_connection)
      << frame_bytes << "-byte answers";

  fd.reset();  // unread answers: the server's next write fails
  server.stop();
}

TEST(NetServer, GracefulShutdownDrainsAcceptedRequests) {
  const Testbed& bed = shared_bed();
  const std::vector<RoundTrace> corpus = make_corpus(bed, 2, 2);

  SensingEngine engine(2);
  Server server(bed.prism(), engine);
  server.start();

  Client client(client_config(server.port()));
  constexpr std::size_t kRequests = 8;
  std::vector<std::uint32_t> seqs;
  for (std::size_t k = 0; k < kRequests; ++k) {
    seqs.push_back(client.send_sense(corpus[k % corpus.size()], bed.tag_id()));
  }

  // Wait until the server has *accepted* all of them, then pull the plug.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (server.stats().frames_received < kRequests) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "server never saw all " << kRequests << " frames";
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  server.stop();  // returns once the drain (solve + flush) completes

  // Every accepted request still gets its response, in order.
  for (std::size_t k = 0; k < kRequests; ++k) {
    const Frame frame = client.read_frame();
    ASSERT_EQ(frame.type, FrameType::kSenseResponse) << "response " << k;
    EXPECT_EQ(frame.seq, seqs[k]) << "response " << k;
  }
  EXPECT_EQ(server.stats().requests_completed, kRequests);
}

TEST(NetServer, FramingGarbageGetsErrorFrameThenClose) {
  const Testbed& bed = shared_bed();
  SensingEngine engine(1);
  Server server(bed.prism(), engine);
  server.start();

  Client client(client_config(server.port()));
  const std::vector<std::uint8_t> garbage = {0xDE, 0xAD, 0xBE, 0xEF,
                                             0x00, 0x01, 0x02, 0x03,
                                             0xFF, 0xFF, 0xFF, 0xFF,
                                             0x10, 0x20, 0x30, 0x40};
  client.send_bytes(garbage);

  // A framing violation is unrecoverable: expect one error frame (best
  // effort) and then EOF. NetError covers the close-first race.
  try {
    const Frame frame = client.read_frame();
    EXPECT_EQ(frame.type, FrameType::kError);
    WireError code;
    std::string message;
    ASSERT_TRUE(net::decode_error_payload(frame.payload, code, message));
    EXPECT_EQ(code, WireError::kMalformedPayload);
    EXPECT_THROW(client.read_frame(), NetError);  // then the close
  } catch (const NetError&) {
    // Server closed before the error frame was read; also acceptable.
  }

  server.stop();
  EXPECT_EQ(server.stats().connections_closed_protocol, 1u);
}

TEST(NetServer, MalformedSensePayloadGetsErrorAndConnectionSurvives) {
  const Testbed& bed = shared_bed();
  const std::vector<RoundTrace> corpus = make_corpus(bed, 1, 0);

  SensingEngine engine(1);
  Server server(bed.prism(), engine);
  server.start();

  Client client(client_config(server.port()));

  // A well-framed request whose payload is junk: the frame layer is fine,
  // so the server answers with an error frame and keeps the connection.
  const std::vector<std::uint8_t> junk = {1, 2, 3};
  client.send_bytes(net::encode_frame(FrameType::kSenseRequest, 901, junk));
  Frame frame = client.read_frame();
  ASSERT_EQ(frame.type, FrameType::kError);
  EXPECT_EQ(frame.seq, 901u);
  WireError code;
  std::string message;
  ASSERT_TRUE(net::decode_error_payload(frame.payload, code, message));
  EXPECT_EQ(code, WireError::kMalformedPayload);

  // Unknown frame type: same shape, kUnsupportedType.
  client.send_bytes(
      net::encode_frame(static_cast<FrameType>(250), 902, junk));
  frame = client.read_frame();
  ASSERT_EQ(frame.type, FrameType::kError);
  EXPECT_EQ(frame.seq, 902u);
  ASSERT_TRUE(net::decode_error_payload(frame.payload, code, message));
  EXPECT_EQ(code, WireError::kUnsupportedType);

  // And a real request on the same connection still works.
  const SensingResult result = client.sense(corpus[0], bed.tag_id());
  EXPECT_TRUE(result.valid);

  server.stop();
  const net::ServerStats stats = server.stats();
  EXPECT_EQ(stats.connections_closed_protocol, 0u);
  EXPECT_GE(stats.requests_failed, 2u);
}

TEST(NetServer, IdleConnectionsAreReaped) {
  const Testbed& bed = shared_bed();
  SensingEngine engine(1);
  ServerConfig config;
  config.idle_timeout_s = 0.05;
  Server server(bed.prism(), engine, config);
  server.start();

  Client client(client_config(server.port()));
  client.ping();  // activity, then silence
  EXPECT_THROW(client.read_frame(), NetError);  // EOF once the timer fires

  server.stop();
  EXPECT_EQ(server.stats().connections_closed_idle, 1u);
}

TEST(NetServer, RejectsConnectionsOverTheCap) {
  const Testbed& bed = shared_bed();
  SensingEngine engine(1);
  ServerConfig config;
  config.max_connections = 1;
  Server server(bed.prism(), engine, config);
  server.start();

  Client first(client_config(server.port()));
  first.ping();  // definitely accepted and serviced

  ClientConfig second_config = client_config(server.port());
  second_config.connect_attempts = 1;
  // Transport retries would reconnect and be rejected again — keep the
  // rejection count at exactly one for the assertion below.
  second_config.request_attempts = 1;
  second_config.io_timeout_s = 5.0;
  // The TCP connect may succeed before the server closes the excess
  // socket, so the rejection can surface at connect OR first use.
  try {
    Client second(second_config);
    second.ping();
    FAIL() << "second connection was serviced past max_connections=1";
  } catch (const NetError&) {
  }

  server.stop();
  EXPECT_EQ(server.stats().connections_rejected, 1u);
}

TEST(NetServer, ClientRetriesTransportFaultsTransparently) {
  const Testbed& bed = shared_bed();
  const std::vector<RoundTrace> corpus = make_corpus(bed, 1, 0);

  SensingEngine engine(1);
  Server server(bed.prism(), engine);
  server.start();

  ClientConfig config = client_config(server.port());
  config.request_attempts = 3;
  config.request_backoff_s = 0.01;
  Client client(config);
  client.ping();

  // Poison the connection: framing garbage makes the server answer with a
  // fatal error frame (seq 0) and close. The next sense() rides the retry
  // path — the first attempt fails on the poisoned connection (seq
  // mismatch, EOF, or send failure, depending on timing), the retry
  // reconnects and resends on a fresh connection.
  const std::vector<std::uint8_t> garbage = {0xDE, 0xAD, 0xBE, 0xEF,
                                             0xFF, 0xFF, 0xFF, 0xFF};
  client.send_bytes(garbage);
  const SensingResult result = client.sense(corpus[0], bed.tag_id());
  EXPECT_TRUE(result.valid);

  // An explicitly closed client reconnects lazily on the next request.
  client.close();
  EXPECT_FALSE(client.connected());
  EXPECT_TRUE(client.sense(corpus[0], bed.tag_id()).valid);
  EXPECT_TRUE(client.connected());

  server.stop();
  const net::ServerStats stats = server.stats();
  EXPECT_EQ(stats.connections_closed_protocol, 1u);
  EXPECT_GE(stats.connections_accepted, 3u);
}

TEST(NetServer, RemoteErrorIsNeverRetried) {
  const Testbed& bed = shared_bed();
  const std::vector<RoundTrace> corpus = make_corpus(bed, 1, 0);

  SensingEngine engine(1);
  Server server(bed.prism(), engine);
  server.start();

  ClientConfig config = client_config(server.port());
  config.request_attempts = 3;
  config.request_backoff_s = 0.01;
  Client client(config);

  // A junk payload framed as the client's *own next seq* (1): the server
  // answers it with an error frame and keeps the connection, so the real
  // sense() request that follows reads a matching-seq error frame —
  // RemoteError. The server *answered*, so the retry loop must pass it
  // straight through instead of resending.
  const std::vector<std::uint8_t> junk = {9, 9, 9};
  client.send_bytes(net::encode_frame(FrameType::kSenseRequest, 1, junk));
  EXPECT_THROW(client.sense(corpus[0], bed.tag_id()), RemoteError);

  server.stop();
  const net::ServerStats stats = server.stats();
  // Exactly two frames ever hit the wire: the junk request and ONE copy
  // of the real request. A retried RemoteError would have sent more.
  EXPECT_EQ(stats.frames_received, 2u);
  EXPECT_EQ(stats.requests_failed, 1u);
}

TEST(NetServer, RetriesExhaustedSurfaceAsNetError) {
  const Testbed& bed = shared_bed();
  SensingEngine engine(1);
  Server server(bed.prism(), engine);
  server.start();

  ClientConfig config = client_config(server.port());
  config.request_attempts = 3;
  config.request_backoff_s = 0.01;
  config.connect_timeout_s = 1.0;
  Client client(config);
  client.ping();

  // Once the server is gone for good, every attempt fails — the first on
  // the dead connection, the reconnects on the closed port — and after
  // request_attempts tries the NetError surfaces to the caller.
  server.stop();
  EXPECT_THROW(client.ping(), NetError);
}

TEST(NetServer, StalledConnectionIsShedWithoutDisturbingOthers) {
  const Testbed& bed = shared_bed();
  const std::vector<RoundTrace> corpus = make_corpus(bed, 2, 0);

  SensingEngine engine(2);
  ServerConfig config;
  config.stall_timeout_s = 0.2;
  config.idle_timeout_s = 5.0;
  Server server(bed.prism(), engine, config);
  server.start();

  Client healthy(client_config(server.port()));
  ClientConfig loris_config = client_config(server.port());
  loris_config.request_attempts = 1;  // observe the shed, don't mask it
  Client loris(loris_config);

  // The slow-loris shape: half a frame, then a one-byte trickle. Every
  // trickled byte refreshes the *idle* timer, but none completes a frame,
  // so the connection makes no protocol progress and the stall timer
  // fires at last_progress + stall_timeout_s.
  const std::vector<std::uint8_t> request =
      net::encode_frame(FrameType::kSenseRequest, 1,
                        net::encode_sense_request(bed.tag_id(), corpus[0]));
  loris.send_bytes({request.data(), request.size() / 2});

  // Meanwhile a healthy pipelined client is serviced normally.
  std::vector<std::uint32_t> seqs;
  for (std::size_t k = 0; k < 4; ++k) {
    seqs.push_back(healthy.send_sense(corpus[k % corpus.size()],
                                      bed.tag_id()));
  }

  std::size_t offset = request.size() / 2;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  bool shed = false;
  while (!shed) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "stalled connection was never shed";
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    try {
      if (offset < request.size()) {
        loris.send_bytes({request.data() + offset, 1});
        ++offset;
      }
    } catch (const NetError&) {
      shed = true;  // the send saw the close first
    }
    if (server.stats().connections_closed_stalled > 0) shed = true;
  }

  // The loris connection is gone; the healthy one never noticed — its
  // responses arrive complete and in request order.
  EXPECT_THROW(loris.read_frame(), NetError);
  for (std::size_t k = 0; k < seqs.size(); ++k) {
    const Frame frame = healthy.read_frame();
    ASSERT_EQ(frame.type, FrameType::kSenseResponse) << "response " << k;
    EXPECT_EQ(frame.seq, seqs[k]) << "response " << k;
  }

  server.stop();
  const net::ServerStats stats = server.stats();
  EXPECT_EQ(stats.connections_closed_stalled, 1u);
  EXPECT_EQ(stats.connections_closed_idle, 0u);
  EXPECT_EQ(stats.requests_completed, seqs.size());
}

TEST(NetServer, DriftEnabledServerObservesAndReportsStats) {
  const Testbed& bed = shared_bed();

  RfPrismConfig prism_config = bed.prism().config();
  prism_config.disentangle.drift.enable = true;
  const RfPrism prism = bed.make_pipeline_variant(std::move(prism_config));

  SensingEngine engine(2);
  Server server(prism, engine);
  server.start();

  // Clean rounds from a static tag: the estimator warms up, corrections
  // stay tiny, and no alarm ever fires.
  const TagState state = bed.tag_state({0.8, 1.2}, 0.5, "glass");
  Client client(client_config(server.port()));
  constexpr std::size_t kRounds = 12;
  for (std::size_t k = 0; k < kRounds; ++k) {
    const SensingResult result =
        client.sense(bed.collect(state, 8000 + k), bed.tag_id());
    EXPECT_TRUE(result.valid) << "round " << k;
  }

  server.stop();
  const net::ServerStats stats = server.stats();
  EXPECT_EQ(stats.requests_completed, kRounds);
  EXPECT_EQ(stats.drift_rounds_observed, kRounds);
  EXPECT_EQ(stats.drift_alarms_raised, 0u);
  EXPECT_EQ(stats.drift_alarms_active, 0u);
  EXPECT_EQ(stats.drift_ports_dropped, 0u);
  EXPECT_TRUE(prism.drift_corrections().active);  // past warm-up
}

TEST(NetServer, DriftStreamsAndSensesShareTheDefaultEstimate) {
  // The rfpd --drift shape: the default prism enables drift, and a stream
  // session shipping that same deployment binds the default tenant, so
  // the streamed rounds and the senses feed the one estimate the
  // ServerStats drift block reports.
  const Testbed& bed = shared_bed();
  RfPrismConfig prism_config = bed.prism().config();
  prism_config.disentangle.drift.enable = true;
  const RfPrism prism = bed.make_pipeline_variant(std::move(prism_config));

  SensingEngine engine(2);
  Server server(prism, engine);
  server.start();

  Client client(client_config(server.port()));
  const net::SessionReady ready = client.setup_session(
      prism.config().geometry, prism.calibrations(), /*enable_drift=*/true);
  EXPECT_TRUE(ready.drift_enabled);

  const TagState state = bed.tag_state({0.8, 1.2}, 0.5, "glass");
  constexpr std::size_t kRounds = 6;
  std::size_t streamed = 0;
  std::uint64_t valid = 0;
  double clock = 0.0;
  for (std::size_t k = 0; k < kRounds; ++k) {
    std::vector<TagRead> reads =
        round_to_reads(bed.collect(state, 8100 + k), bed.tag_id());
    for (TagRead& read : reads) read.time_s += clock;
    for (const TagRead& read : reads) clock = std::max(clock, read.time_s);
    clock += 0.5;
    for (const StreamedResult& emitted : client.push_stream(reads, clock)) {
      ++streamed;
      if (emitted.result.valid) ++valid;
    }
  }
  EXPECT_EQ(streamed, kRounds);
  for (std::size_t k = 0; k < kRounds; ++k) {
    if (client.sense(bed.collect(state, 8200 + k), bed.tag_id()).valid) {
      ++valid;
    }
  }
  EXPECT_EQ(valid, 2 * kRounds);

  server.stop();
  EXPECT_EQ(server.stats().drift_rounds_observed, valid);
  const std::vector<TenantStats> tenants = server.tenant_stats();
  ASSERT_EQ(tenants.size(), 1u);  // the session bound the default tenant
  EXPECT_TRUE(tenants[0].is_default);
  EXPECT_EQ(tenants[0].digest, ready.digest);
  EXPECT_TRUE(tenants[0].drift_enabled);
  EXPECT_EQ(tenants[0].drift.rounds_observed, valid);
}

TEST(NetServer, OlderVersionPeerGetsGoodbyeEncodedAtItsVersion) {
  // A v1 client must receive its kUnsupportedVersion goodbye *as a v1
  // frame* (the error payload layout is unchanged since v1), so it can
  // decode why it was refused. The frame is read raw here because a
  // current-version FrameDecoder would itself reject a v1 reply.
  const Testbed& bed = shared_bed();
  SensingEngine engine(1);
  Server server(bed.prism(), engine);
  server.start();

  std::string error;
  UniqueFd fd = tcp_connect("127.0.0.1", server.port(), 5.0, &error);
  ASSERT_TRUE(fd.valid()) << error;
  const std::vector<std::uint8_t> v1_ping =
      net::encode_frame(FrameType::kPing, 1, {}, /*version=*/1);
  ASSERT_TRUE(send_all(fd.get(), v1_ping.data(), v1_ping.size(), 5.0));

  // Read until EOF: expect exactly one goodbye frame, then the close.
  std::vector<std::uint8_t> reply;
  for (;;) {
    std::uint8_t buf[4096];
    const IoResult r = recv_with_timeout(fd.get(), buf, sizeof buf, 30.0);
    if (r.status != IoStatus::kOk) {
      EXPECT_EQ(r.status, IoStatus::kClosed);  // clean close, not a reset
      break;
    }
    reply.insert(reply.end(), buf, buf + r.bytes);
  }
  ASSERT_GE(reply.size(), net::kHeaderSize);
  auto u16_at = [&](std::size_t off) {
    return static_cast<std::uint16_t>(reply[off] | (reply[off + 1] << 8));
  };
  auto u32_at = [&](std::size_t off) {
    return static_cast<std::uint32_t>(reply[off]) |
           (static_cast<std::uint32_t>(reply[off + 1]) << 8) |
           (static_cast<std::uint32_t>(reply[off + 2]) << 16) |
           (static_cast<std::uint32_t>(reply[off + 3]) << 24);
  };
  EXPECT_EQ(u32_at(0), net::kMagic);
  EXPECT_EQ(u16_at(4), 1u);  // goodbye speaks the peer's version
  EXPECT_EQ(u16_at(6), static_cast<std::uint16_t>(FrameType::kError));
  const std::uint32_t payload_len = u32_at(12);
  ASSERT_EQ(reply.size(), net::kHeaderSize + payload_len);
  WireError code;
  std::string message;
  ASSERT_TRUE(net::decode_error_payload(
      {reply.data() + net::kHeaderSize, payload_len}, code, message));
  EXPECT_EQ(code, WireError::kUnsupportedVersion);

  server.stop();
  const net::ServerStats stats = server.stats();
  EXPECT_EQ(stats.connections_closed_version, 1u);
  EXPECT_EQ(stats.connections_closed_protocol, 0u);
}

TEST(NetServer, NewerVersionPeerGetsCurrentVersionGoodbye) {
  // A peer from the future: the server cannot know its error layout, so
  // the goodbye is encoded at the server's own version — which this
  // (current-version) client can decode normally.
  const Testbed& bed = shared_bed();
  SensingEngine engine(1);
  Server server(bed.prism(), engine);
  server.start();

  Client client(client_config(server.port()));
  client.send_bytes(net::encode_frame(FrameType::kPing, 1, {},
                                      net::kVersion + 1));
  try {
    const Frame frame = client.read_frame();
    ASSERT_EQ(frame.type, FrameType::kError);
    WireError code;
    std::string message;
    ASSERT_TRUE(net::decode_error_payload(frame.payload, code, message));
    EXPECT_EQ(code, WireError::kUnsupportedVersion);
    EXPECT_THROW(client.read_frame(), NetError);  // then the close
  } catch (const NetError&) {
    // Close raced ahead of the goodbye read; also acceptable.
  }

  server.stop();
  const net::ServerStats stats = server.stats();
  EXPECT_EQ(stats.connections_closed_version, 1u);
  EXPECT_EQ(stats.connections_closed_protocol, 0u);
}

TEST(NetServer, ReorderCapShedsConnectionParkedBehindSlowSolve) {
  // One real solve occupies the single engine worker; a burst of junk
  // requests behind it is answered inline with error frames that must
  // park in the reorder map (response order!) until the solve finishes.
  // Parked bytes past max_reorder_bytes shed the connection instead of
  // holding unbounded memory hostage.
  const Testbed& bed = shared_bed();
  const std::vector<RoundTrace> corpus = make_corpus(bed, 1, 0);

  SensingEngine engine(1);
  ServerConfig config;
  config.max_reorder_bytes = 512;
  Server server(bed.prism(), engine, config);
  server.start();

  ClientConfig cc = client_config(server.port());
  cc.request_attempts = 1;  // observe the shed, don't mask it
  Client client(cc);

  // One buffer, parsed in one pass: the sense request is submitted to the
  // worker, then every junk frame's error response parks behind it.
  std::vector<std::uint8_t> burst = net::encode_frame(
      FrameType::kSenseRequest, 1,
      net::encode_sense_request(bed.tag_id(), corpus[0]));
  const std::vector<std::uint8_t> junk = {1, 2, 3};
  for (std::uint32_t k = 0; k < 24; ++k) {
    net::append_frame(burst, FrameType::kSenseRequest, 2 + k, junk);
  }
  client.send_bytes(burst);

  // The connection is shed; reading surfaces the close.
  EXPECT_THROW(
      {
        for (;;) (void)client.read_frame();
      },
      NetError);

  server.stop();
  EXPECT_EQ(server.stats().reorder_evictions, 1u);
}

TEST(NetServer, StopReturnsOnceDrained) {
  // With nothing in flight there is nothing to drain: stop() must return
  // at once, not after each idle reactor sleeps out its drain poll.
  const Testbed& bed = shared_bed();
  SensingEngine engine(1);
  ServerConfig config;
  config.reactors = 2;
  std::vector<double> stop_ms;
  for (int cycle = 0; cycle < 3; ++cycle) {
    Server server(bed.prism(), engine, config);
    server.start();
    const auto wait_for_open = [&](std::size_t open) {
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(30);
      while (server.stats().connections_open != open) {
        ASSERT_LT(std::chrono::steady_clock::now(), deadline)
            << "connections_open never reached " << open;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    };
    {
      Client client(client_config(server.port()));
      client.ping();
      wait_for_open(1);
    }
    wait_for_open(0);  // the reactors are idle in poll() again

    const auto t0 = std::chrono::steady_clock::now();
    server.stop();
    stop_ms.push_back(std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - t0)
                          .count());
  }
  std::sort(stop_ms.begin(), stop_ms.end());
  EXPECT_LT(stop_ms[1], 50.0) << "stop() took " << stop_ms[0] << ", "
                              << stop_ms[1] << ", " << stop_ms[2] << " ms";
}

TEST(NetServer, StartStopWithoutTrafficIsClean) {
  const Testbed& bed = shared_bed();
  SensingEngine engine(1);
  for (int cycle = 0; cycle < 3; ++cycle) {
    Server server(bed.prism(), engine);
    server.start();
    server.stop();
  }
  // And a destructor-only teardown (no explicit stop).
  Server server(bed.prism(), engine);
  server.start();
}

}  // namespace
}  // namespace rfp
