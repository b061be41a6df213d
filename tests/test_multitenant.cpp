/// Multi-tenant serving end to end over loopback: wire-v2 sessions ship
/// their own deployments, and every tenant's responses must be
/// byte-identical to a single-tenant baseline solved locally with the
/// same grafted pipeline — across engine thread counts, reactor counts,
/// a non-default server solver setting, and faulted/degraded rounds.
/// Also: streaming sessions vs a local StreamingSensor, session replay on
/// reconnect, registry exhaustion over the wire, per-tenant drift, and a
/// session setup/teardown fuzz loop for the sanitizer jobs.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "rfp/common/constants.hpp"
#include "rfp/common/rng.hpp"
#include "rfp/core/deployment_registry.hpp"
#include "rfp/core/streaming.hpp"
#include "rfp/exp/testbed.hpp"
#include "rfp/net/client.hpp"
#include "rfp/net/server.hpp"
#include "rfp/rfsim/faults.hpp"

namespace rfp {
namespace {

using net::Client;
using net::ClientConfig;
using net::RemoteError;
using net::Server;
using net::ServerConfig;
using net::SessionReady;
using net::WireError;

/// The server's own deployment: the 4-antenna fault-tolerance rig.
const Testbed& default_bed() {
  static const Testbed bed([] {
    TestbedConfig config;
    config.n_antennas = 4;
    return config;
  }());
  return bed;
}

/// Session deployment B: same antenna count, different site (seed moves
/// every surveyed antenna), so a cross-tenant mixup still solves — only
/// byte comparison catches it.
const Testbed& bed_b() {
  static const Testbed bed([] {
    TestbedConfig config;
    config.seed = 7;
    config.n_antennas = 4;
    return config;
  }());
  return bed;
}

/// Session deployment C: different antenna count entirely.
const Testbed& bed_c() {
  static const Testbed bed([] {
    TestbedConfig config;
    config.seed = 9;
    return config;  // 3-antenna planar default
  }());
  return bed;
}

ClientConfig client_config(std::uint16_t port) {
  ClientConfig config;
  config.port = port;
  config.io_timeout_s = 120.0;  // solves on a loaded CI box can be slow
  return config;
}

/// Mirror of the registry's graft: the server's solver settings with the
/// shipped deployment's geometry + calibrations. This is the single-tenant
/// pipeline a dedicated daemon for that site would run.
RfPrism graft(const RfPrism& server_prism, const Testbed& bed) {
  RfPrismConfig config = server_prism.config();
  config.geometry = bed.prism().config().geometry;
  RfPrism prism(std::move(config));
  prism.import_calibrations(bed.prism().calibrations());
  return prism;
}

std::vector<RoundTrace> make_corpus(const Testbed& bed, std::size_t n_clean,
                                    std::size_t n_faulted,
                                    std::uint64_t salt) {
  std::vector<RoundTrace> corpus;
  Rng rng(mix_seed(salt, 0x7E4A));
  const auto materials = paper_materials();
  const FaultInjector injector(
      FaultProfile::scaled(0.8, mix_seed(salt, 0xFA17)));
  for (std::size_t k = 0; k < n_clean + n_faulted; ++k) {
    const Vec2 p{0.3 + 1.4 * rng.uniform(), 0.3 + 1.4 * rng.uniform()};
    const TagState state = bed.tag_state(p, rng.uniform(0.0, kPi),
                                         materials[k % materials.size()]);
    RoundTrace round = bed.collect(state, 7000 + salt * 100 + k);
    if (k >= n_clean) round = injector.apply(round, 7000 + salt * 100 + k);
    corpus.push_back(std::move(round));
  }
  return corpus;
}

std::vector<std::vector<std::uint8_t>> expected_bytes(
    const RfPrism& prism, const std::vector<RoundTrace>& corpus,
    SensingEngine& engine, const std::string& tag_id) {
  std::vector<std::vector<std::uint8_t>> expected;
  expected.reserve(corpus.size());
  for (const SensingResult& r : prism.sense_batch(corpus, engine, tag_id)) {
    expected.push_back(net::encode_sense_response(r));
  }
  return expected;
}

/// Require that a corpus's expected bytes span beyond kFull — identical
/// bytes on trivially clean rounds would prove nothing about the faulted
/// paths.
void require_grade_spread(const RfPrism& prism,
                          const std::vector<RoundTrace>& corpus,
                          const std::string& tag_id) {
  bool saw_non_full = false;
  for (const RoundTrace& round : corpus) {
    if (prism.sense(round, tag_id).grade != SensingGrade::kFull) {
      saw_non_full = true;
    }
  }
  ASSERT_TRUE(saw_non_full) << "fault injection produced only full grades";
}

/// The core isolation check: three tenants (default A, sessions B and C)
/// hammered concurrently, every response compared byte-for-byte against
/// its single-tenant baseline. `server_variant` gives the server a
/// non-default solver setting (a coarser orientation scan) that the
/// grafted session tenants must inherit.
void run_isolation_sweep(std::size_t engine_threads, std::size_t reactors,
                         bool server_variant) {
  const Testbed& bed_a = default_bed();
  RfPrismConfig server_config_prism = bed_a.prism().config();
  if (server_variant) {
    server_config_prism.disentangle.orientation_scan_steps = 360;
  }
  const RfPrism server_prism =
      bed_a.make_pipeline_variant(std::move(server_config_prism));

  const RfPrism prism_b = graft(server_prism, bed_b());
  const RfPrism prism_c = graft(server_prism, bed_c());

  const std::vector<RoundTrace> corpus_a = make_corpus(bed_a, 3, 3, 1);
  const std::vector<RoundTrace> corpus_b = make_corpus(bed_b(), 3, 3, 2);
  const std::vector<RoundTrace> corpus_c = make_corpus(bed_c(), 3, 3, 3);

  SensingEngine engine(engine_threads);
  const auto expected_a =
      expected_bytes(server_prism, corpus_a, engine, bed_a.tag_id());
  const auto expected_b =
      expected_bytes(prism_b, corpus_b, engine, bed_b().tag_id());
  const auto expected_c =
      expected_bytes(prism_c, corpus_c, engine, bed_c().tag_id());

  ServerConfig config;
  config.reactors = reactors;
  Server server(server_prism, engine, config);
  server.start();

  struct Job {
    const Testbed* bed;
    const std::vector<RoundTrace>* corpus;
    const std::vector<std::vector<std::uint8_t>>* expected;
    bool session;
  };
  const std::vector<Job> jobs = {
      {&bed_a, &corpus_a, &expected_a, false},
      {&bed_b(), &corpus_b, &expected_b, true},
      {&bed_c(), &corpus_c, &expected_c, true},
  };

  std::vector<std::string> failures(jobs.size());
  std::vector<std::thread> threads;
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    threads.emplace_back([&, j] {
      const Job& job = jobs[j];
      try {
        Client client(client_config(server.port()));
        if (job.session) {
          const SessionReady ready = client.setup_session(
              job.bed->prism().config().geometry,
              job.bed->prism().calibrations());
          if (ready.n_antennas !=
              job.bed->prism().config().geometry.n_antennas()) {
            failures[j] = "session ready antenna count mismatch";
            return;
          }
        }
        for (std::size_t pass = 0; pass < 2; ++pass) {
          for (std::size_t k = 0; k < job.corpus->size(); ++k) {
            const std::vector<std::uint8_t> raw =
                client.sense_raw((*job.corpus)[k], job.bed->tag_id());
            if (raw != (*job.expected)[k]) {
              failures[j] = "tenant response bytes differ for round " +
                            std::to_string(k);
              return;
            }
          }
        }
      } catch (const std::exception& e) {
        failures[j] = e.what();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    EXPECT_EQ(failures[j], "") << "tenant job " << j;
  }

  server.stop();
  const net::ServerStats stats = server.stats();
  EXPECT_EQ(stats.sessions_opened, 2u);
  EXPECT_EQ(stats.tenants_resident, 3u);  // default + B + C
  EXPECT_EQ(stats.requests_failed, 0u);

  // Per-tenant accounting: every tenant saw exactly its own corpus.
  for (const TenantStats& tenant : server.tenant_stats()) {
    if (tenant.is_default) {
      EXPECT_EQ(tenant.requests_completed, 2 * corpus_a.size());
    } else {
      EXPECT_EQ(tenant.sessions_opened, 1u);
      EXPECT_EQ(tenant.requests_completed, 2 * corpus_b.size());
    }
  }
}

TEST(MultiTenant, ConcurrentTenantsAreByteIdenticalSingleThread) {
  run_isolation_sweep(/*engine_threads=*/1, /*reactors=*/1,
                      /*server_variant=*/false);
}

TEST(MultiTenant, ConcurrentTenantsAreByteIdenticalTwoThreadsTwoReactors) {
  run_isolation_sweep(/*engine_threads=*/2, /*reactors=*/2,
                      /*server_variant=*/false);
}

TEST(MultiTenant, ConcurrentTenantsAreByteIdenticalEightThreads) {
  run_isolation_sweep(/*engine_threads=*/8, /*reactors=*/2,
                      /*server_variant=*/false);
}

TEST(MultiTenant, ConcurrentTenantsAreByteIdenticalScalarKernel) {
  run_isolation_sweep(/*engine_threads=*/2, /*reactors=*/1,
                      /*server_variant=*/true);
}

TEST(MultiTenant, FaultedCorpusSpansGrades) {
  // Guard for the sweeps above: the shared corpora must actually exercise
  // the degraded/rejected paths on at least one tenant.
  const RfPrism prism_b = graft(default_bed().prism(), bed_b());
  require_grade_spread(prism_b, make_corpus(bed_b(), 3, 3, 2),
                       bed_b().tag_id());
}

TEST(MultiTenant, StreamingSessionMatchesLocalStreamingSensor) {
  const Testbed& bed_a = default_bed();
  const RfPrism prism_b = graft(bed_a.prism(), bed_b());

  SensingEngine engine(2);
  Server server(bed_a.prism(), engine);
  server.start();

  Client client(client_config(server.port()));
  client.setup_session(bed_b().prism().config().geometry,
                       bed_b().prism().calibrations());

  // Local reference: the same sensor a dedicated deployment would run
  // (engine-less is bit-identical per StreamingSensor's contract).
  StreamingSensor local(prism_b, ServerConfig{}.stream);

  Rng rng(mix_seed(5, 0x57));
  const auto materials = paper_materials();
  double clock = 0.0;
  std::size_t emissions = 0;
  for (std::size_t k = 0; k < 4; ++k) {
    const Vec2 p{0.4 + 1.2 * rng.uniform(), 0.4 + 1.2 * rng.uniform()};
    const TagState state = bed_b().tag_state(p, rng.uniform(0.0, kPi),
                                             materials[k]);
    const RoundTrace round = bed_b().collect(state, 9100 + k);
    std::vector<TagRead> reads =
        round_to_reads(round, "stream-" + std::to_string(k));
    for (TagRead& read : reads) read.time_s += clock;
    double newest = clock;
    for (const TagRead& read : reads) newest = std::max(newest, read.time_s);
    clock = newest + 0.5;

    const std::vector<std::uint8_t> remote =
        client.push_stream_raw(reads, clock);
    local.push(reads);
    const std::vector<std::uint8_t> expected =
        net::encode_stream_results(local.poll(clock));
    EXPECT_EQ(remote, expected) << "stream round " << k;
    std::vector<StreamedResult> decoded;
    ASSERT_TRUE(net::decode_stream_results(remote, decoded));
    emissions += decoded.size();
  }
  EXPECT_GT(emissions, 0u);  // the comparison exercised real emissions

  client.close_session();
  server.stop();
  const net::ServerStats stats = server.stats();
  EXPECT_EQ(stats.stream_results, emissions);
  EXPECT_GT(stats.stream_reads, 0u);
}

TEST(MultiTenant, SessionReplayAfterReconnectStaysOnTenant) {
  const Testbed& bed_a = default_bed();
  const RfPrism prism_b = graft(bed_a.prism(), bed_b());
  const std::vector<RoundTrace> corpus = make_corpus(bed_b(), 2, 0, 6);

  SensingEngine engine(2);
  const auto expected =
      expected_bytes(prism_b, corpus, engine, bed_b().tag_id());

  Server server(bed_a.prism(), engine);
  server.start();

  Client client(client_config(server.port()));
  client.setup_session(bed_b().prism().config().geometry,
                       bed_b().prism().calibrations());
  EXPECT_TRUE(client.has_session());
  EXPECT_EQ(client.sense_raw(corpus[0], bed_b().tag_id()), expected[0]);

  // Kill the connection: the next request reconnects and must replay the
  // session setup first — the response is still tenant B's bytes, never
  // the default tenant's.
  client.close();
  EXPECT_EQ(client.sense_raw(corpus[1], bed_b().tag_id()), expected[1]);

  server.stop();
  const std::uint64_t digest_b = DeploymentRegistry::digest_of(
      bed_b().prism().config().geometry, bed_b().prism().calibrations());
  for (const TenantStats& tenant : server.tenant_stats()) {
    if (tenant.digest != digest_b) continue;
    EXPECT_EQ(tenant.sessions_opened, 2u);  // original + replay
    EXPECT_EQ(tenant.requests_completed, 2u);
  }
  EXPECT_EQ(server.stats().sessions_opened, 2u);
}

TEST(MultiTenant, RegistryExhaustionSurfacesAsRemoteError) {
  const Testbed& bed_a = default_bed();
  SensingEngine engine(1);
  ServerConfig config;
  config.max_tenants = 2;  // default + exactly one session deployment
  Server server(bed_a.prism(), engine, config);
  server.start();

  Client first(client_config(server.port()));
  first.setup_session(bed_b().prism().config().geometry,
                      bed_b().prism().calibrations());

  Client second(client_config(server.port()));
  try {
    second.setup_session(bed_c().prism().config().geometry,
                         bed_c().prism().calibrations());
    FAIL() << "registry full was not reported";
  } catch (const RemoteError& e) {
    EXPECT_EQ(e.code(),
              static_cast<std::uint32_t>(WireError::kRegistryFull));
  }

  // Closing the pinning session frees the slot: the same setup now
  // succeeds by evicting tenant B.
  first.close_session();
  EXPECT_FALSE(first.has_session());
  const SessionReady ready =
      second.setup_session(bed_c().prism().config().geometry,
                           bed_c().prism().calibrations());
  EXPECT_EQ(ready.n_antennas,
            bed_c().prism().config().geometry.n_antennas());

  server.stop();
  const net::ServerStats stats = server.stats();
  EXPECT_EQ(stats.tenants_evicted, 1u);
  EXPECT_EQ(stats.tenants_resident, 2u);
}

TEST(MultiTenant, NonFiniteSessionGeometryIsMalformed) {
  // A shipped geometry with a NaN antenna position is refused as a
  // malformed payload: it opens no session and takes no registry slot, and
  // the connection stays usable on the default tenant.
  const Testbed& bed_a = default_bed();
  SensingEngine engine(1);
  Server server(bed_a.prism(), engine);
  server.start();

  DeploymentGeometry geometry = bed_b().prism().config().geometry;
  geometry.antenna_positions[1].x = std::numeric_limits<double>::quiet_NaN();
  Client client(client_config(server.port()));
  try {
    client.setup_session(geometry, bed_b().prism().calibrations());
    FAIL() << "a non-finite geometry was admitted";
  } catch (const RemoteError& e) {
    EXPECT_EQ(e.code(),
              static_cast<std::uint32_t>(WireError::kMalformedPayload));
  }
  EXPECT_FALSE(client.has_session());
  client.ping();

  server.stop();
  const net::ServerStats stats = server.stats();
  EXPECT_EQ(stats.sessions_opened, 0u);
  EXPECT_EQ(stats.tenants_resident, 1u);
}

TEST(MultiTenant, MalformedSessionSetupKeepsConnectionUsable) {
  const Testbed& bed_a = default_bed();
  const std::vector<RoundTrace> corpus = make_corpus(bed_a, 1, 0, 8);
  SensingEngine engine(1);
  Server server(bed_a.prism(), engine);
  server.start();

  Client client(client_config(server.port()));
  const std::vector<std::uint8_t> junk = {4, 5, 6};
  client.send_bytes(
      net::encode_frame(net::FrameType::kSessionSetup, 501, junk));
  const net::Frame frame = client.read_frame();
  ASSERT_EQ(frame.type, net::FrameType::kError);
  EXPECT_EQ(frame.seq, 501u);
  WireError code;
  std::string message;
  ASSERT_TRUE(net::decode_error_payload(frame.payload, code, message));
  EXPECT_EQ(code, WireError::kMalformedPayload);

  // The connection survives, still bound to the default tenant.
  EXPECT_EQ(client.sense_raw(corpus[0], bed_a.tag_id()),
            net::encode_sense_response(
                bed_a.prism().sense(corpus[0], bed_a.tag_id())));

  server.stop();
  EXPECT_EQ(server.stats().sessions_opened, 0u);
  EXPECT_EQ(server.stats().connections_closed_protocol, 0u);
}

TEST(MultiTenant, SessionCloseIsIdempotentAndRebindsToDefault) {
  const Testbed& bed_a = default_bed();
  const std::vector<RoundTrace> corpus_a = make_corpus(bed_a, 1, 0, 10);
  SensingEngine engine(1);
  Server server(bed_a.prism(), engine);
  server.start();

  Client client(client_config(server.port()));
  client.setup_session(bed_b().prism().config().geometry,
                       bed_b().prism().calibrations());
  client.close_session();
  client.close_session();  // idempotent: second close is a no-op ack

  // Back on the default tenant: default-deployment rounds solve again.
  EXPECT_EQ(client.sense_raw(corpus_a[0], bed_a.tag_id()),
            net::encode_sense_response(
                bed_a.prism().sense(corpus_a[0], bed_a.tag_id())));

  server.stop();
  const net::ServerStats stats = server.stats();
  EXPECT_EQ(stats.sessions_opened, 1u);
  EXPECT_EQ(stats.sessions_closed, 1u);  // only the bound close counts
}

TEST(MultiTenant, DriftEnabledSessionReportsPerTenantDrift) {
  const Testbed& bed_a = default_bed();
  SensingEngine engine(2);
  Server server(bed_a.prism(), engine);
  server.start();

  Client client(client_config(server.port()));
  const SessionReady ready = client.setup_session(
      bed_b().prism().config().geometry, bed_b().prism().calibrations(),
      /*enable_drift=*/true);
  EXPECT_TRUE(ready.drift_enabled);

  const TagState state = bed_b().tag_state({0.8, 1.2}, 0.5, "glass");
  constexpr std::size_t kRounds = 6;
  for (std::size_t k = 0; k < kRounds; ++k) {
    const SensingResult result =
        client.sense(bed_b().collect(state, 9500 + k), bed_b().tag_id());
    EXPECT_TRUE(result.valid) << "round " << k;
  }

  server.stop();
  const std::uint64_t digest_b = DeploymentRegistry::digest_of(
      bed_b().prism().config().geometry, bed_b().prism().calibrations());
  bool found = false;
  for (const TenantStats& tenant : server.tenant_stats()) {
    if (tenant.digest != digest_b) continue;
    found = true;
    EXPECT_TRUE(tenant.drift_enabled);
    EXPECT_EQ(tenant.drift.rounds_observed, kRounds);
  }
  EXPECT_TRUE(found);
  // The default deployment's estimate (drift off there) stays untouched.
  EXPECT_EQ(server.stats().drift_rounds_observed, 0u);
}

TEST(MultiTenant, StreamingSessionFeedsItsTenantsDriftEstimate) {
  // A drift session's streamed rounds and its senses feed one estimate,
  // the tenant prism's, which outlives the session's StreamingSensor.
  const Testbed& bed_a = default_bed();
  SensingEngine engine(2);
  Server server(bed_a.prism(), engine);
  server.start();

  Client client(client_config(server.port()));
  const SessionReady ready = client.setup_session(
      bed_b().prism().config().geometry, bed_b().prism().calibrations(),
      /*enable_drift=*/true);
  ASSERT_TRUE(ready.drift_enabled);

  const TagState state = bed_b().tag_state({0.8, 1.2}, 0.5, "glass");
  constexpr std::size_t kStreamed = 6;
  constexpr std::size_t kSenses = 3;
  std::uint64_t streamed_valid = 0;
  double clock = 0.0;
  for (std::size_t k = 0; k < kStreamed; ++k) {
    std::vector<TagRead> reads =
        round_to_reads(bed_b().collect(state, 9600 + k), bed_b().tag_id());
    for (TagRead& read : reads) read.time_s += clock;
    for (const TagRead& read : reads) clock = std::max(clock, read.time_s);
    clock += 0.5;
    for (const StreamedResult& emitted : client.push_stream(reads, clock)) {
      if (emitted.result.valid) ++streamed_valid;
    }
  }
  std::uint64_t sensed_valid = 0;
  for (std::size_t k = 0; k < kSenses; ++k) {
    if (client.sense(bed_b().collect(state, 9700 + k), bed_b().tag_id())
            .valid) {
      ++sensed_valid;
    }
  }
  EXPECT_EQ(streamed_valid, kStreamed);
  EXPECT_EQ(sensed_valid, kSenses);

  client.close_session();
  server.stop();
  bool found = false;
  for (const TenantStats& tenant : server.tenant_stats()) {
    if (tenant.digest != ready.digest) continue;
    found = true;
    EXPECT_TRUE(tenant.drift_enabled);
    EXPECT_EQ(tenant.drift.rounds_observed, streamed_valid + sensed_valid);
  }
  EXPECT_TRUE(found);
}

TEST(MultiTenant, SessionSetupTeardownFuzz) {
  // Sanitizer hunting ground: concurrent clients churning sessions open
  // and closed across two deployments, with malformed setups and abrupt
  // disconnects mixed in. Any outcome is fine except a crash, a data
  // race, or a wrong-tenant response.
  const Testbed& bed_a = default_bed();
  const RfPrism prism_b = graft(bed_a.prism(), bed_b());
  const RfPrism prism_c = graft(bed_a.prism(), bed_c());
  const std::vector<RoundTrace> corpus_b = make_corpus(bed_b(), 1, 0, 12);
  const std::vector<RoundTrace> corpus_c = make_corpus(bed_c(), 1, 0, 13);

  SensingEngine engine(2);
  const auto expected_b =
      expected_bytes(prism_b, corpus_b, engine, bed_b().tag_id());
  const auto expected_c =
      expected_bytes(prism_c, corpus_c, engine, bed_c().tag_id());

  ServerConfig config;
  config.reactors = 2;
  config.max_tenants = 3;
  Server server(bed_a.prism(), engine, config);
  server.start();

  constexpr std::size_t kThreads = 3;
  constexpr std::size_t kIterations = 8;
  std::atomic<std::uint64_t> malformed_sent{0};
  std::vector<std::string> failures(kThreads);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(mix_seed(t, 0xF422));
      try {
        for (std::size_t i = 0; i < kIterations; ++i) {
          Client client(client_config(server.port()));
          const bool use_b = rng.bernoulli(0.5);
          const Testbed& bed = use_b ? bed_b() : bed_c();
          if (rng.bernoulli(0.2)) {
            // Malformed setup: answered with an error, connection lives.
            const std::vector<std::uint8_t> junk = {1, 2, 3};
            client.send_bytes(net::encode_frame(
                net::FrameType::kSessionSetup, 1, junk));
            (void)client.read_frame();
            ++malformed_sent;
            continue;  // drop the connection abruptly
          }
          client.setup_session(bed.prism().config().geometry,
                               bed.prism().calibrations(),
                               rng.bernoulli(0.3));
          if (rng.bernoulli(0.5)) {
            const auto& corpus = use_b ? corpus_b : corpus_c;
            const auto& expected = use_b ? expected_b : expected_c;
            const std::vector<std::uint8_t> raw =
                client.sense_raw(corpus[0], bed.tag_id());
            if (raw != expected[0]) {
              failures[t] = "fuzz: wrong-tenant response bytes";
              return;
            }
          }
          if (rng.bernoulli(0.5)) client.close_session();
          // Otherwise the destructor drops the connection mid-session.
        }
      } catch (const std::exception& e) {
        failures[t] = e.what();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (std::size_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(failures[t], "") << "fuzz thread " << t;
  }

  server.stop();
  // Malformed setups are answered with error frames and counted as failed
  // requests; nothing else may fail.
  EXPECT_EQ(server.stats().requests_failed, malformed_sent.load());
  EXPECT_LE(server.stats().tenants_resident, 3u);
}

}  // namespace
}  // namespace rfp
