/// Serving-layer throughput: connection x tenant x reactor sweeps over a
/// loopback rfp::net::Server.
///
/// Two workloads, one JSON stream (BENCH_serving.json in CI):
///
///   solve — N concurrent client connections pipeline `depth` sense
///   requests per window against a 2-reactor server; with tenants > 1
///   each connection opens a wire-v2 session shipping its own surveyed
///   geometry + calibration, so the sweep exercises the deployment
///   registry on the hot path. Every response is checked byte-for-byte
///   against the locally grafted single-tenant pipeline, so a
///   wire-determinism regression fails the bench before it skews a
///   number. A `solve-inproc` row runs the same corpus through
///   sense_batch on the same engine, 8 rounds per call, as the reference:
///   CI gates the (1 tenant, 4 clients, depth 8) cell at >= 0.7x its
///   req/s and the (1 tenant, 1 client, depth 8) window p50 at <= 3x its
///   8-round p50. A response held back by Nagle and the client's delayed
///   ACK holds a depth-8 window near 44 ms; with TCP_NODELAY on accepted
///   sockets a served window costs about one in-process batch.
///
///   wire — 8 connections blast batched ping frames at servers running
///   1, 2, and 4 reactors, each for a fixed interval timed from when all
///   of them have connected. Pings are answered inline on the reactor
///   thread (no engine hand-off), so this isolates front-end scaling:
///   CI gates 4-reactor throughput >= 2x single-reactor on this
///   workload (skipped on < 4 cores, where wall-clock parallelism is
///   meaningless — the `cores` field records the machine).
///
/// Cells report sustained requests/sec plus p50/p99 window latency.

#include <chrono>
#include <cstdio>
#include <latch>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "rfp/core/engine.hpp"
#include "rfp/net/client.hpp"
#include "rfp/net/server.hpp"
#include "support/bench_util.hpp"

namespace {

using namespace rfp;
using namespace rfp::bench;

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Cell {
  const char* mode = "solve";
  std::size_t reactors = 0;
  std::size_t tenants = 0;
  std::size_t clients = 0;
  std::size_t depth = 0;
  double requests_per_s = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
};

struct ClientOutcome {
  std::vector<double> window_ms;
  std::size_t completed = 0;
  std::string error;  // empty on success
};

/// One deployment a client can ship over the wire: its testbed, a hop
/// corpus, and the expected response bytes from the grafted direct path
/// (server solver settings + this deployment's geometry/calibration —
/// exactly what the registry builds for a session tenant).
struct Deployment {
  std::unique_ptr<Testbed> bed;
  std::vector<RoundTrace> corpus;
  std::vector<std::vector<std::uint8_t>> expected;
};

Deployment make_deployment(const RfPrism* server_prism, std::uint64_t seed,
                           std::size_t corpus_size) {
  Deployment dep;
  TestbedConfig config;
  config.seed = seed;
  dep.bed = std::make_unique<Testbed>(config);

  const auto materials = paper_materials();
  Rng rng(mix_seed(seed, 0x5E59));
  dep.corpus.reserve(corpus_size);
  for (std::size_t k = 0; k < corpus_size; ++k) {
    const Vec2 p{0.3 + 1.4 * rng.uniform(), 0.3 + 1.4 * rng.uniform()};
    const TagState state = dep.bed->tag_state(p, rng.uniform(0.0, kPi),
                                              materials[k % materials.size()]);
    dep.corpus.push_back(dep.bed->collect(state, 11000 + k));
  }

  dep.expected.reserve(dep.corpus.size());
  if (server_prism == nullptr) {  // the server's own (default) deployment
    for (const RoundTrace& round : dep.corpus) {
      dep.expected.push_back(net::encode_sense_response(
          dep.bed->prism().sense(round, dep.bed->tag_id())));
    }
  } else {
    // Mirror the registry graft: server solver settings, this
    // deployment's geometry and calibration database.
    RfPrismConfig grafted = server_prism->config();
    grafted.geometry = dep.bed->prism().config().geometry;
    RfPrism prism(std::move(grafted));
    prism.import_calibrations(dep.bed->prism().calibrations());
    for (const RoundTrace& round : dep.corpus) {
      dep.expected.push_back(
          net::encode_sense_response(prism.sense(round, dep.bed->tag_id())));
    }
  }
  return dep;
}

}  // namespace

int main(int argc, char** argv) {
  // --quick: fewer cells and windows (CI smoke).
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--quick") quick = true;
  }

  print_header("Serving throughput",
               "rfpd loopback requests/sec: connections x tenants x reactors");

  const std::size_t cores = std::thread::hardware_concurrency();
  const std::size_t corpus_size = quick ? 8 : 32;

  // Deployment 0 is the server's own (sessions not needed); 1..N are
  // distinct surveyed sites shipped over wire-v2 session setup.
  std::vector<Deployment> deployments;
  deployments.push_back(make_deployment(nullptr, 42, corpus_size));
  const RfPrism& server_prism = deployments[0].bed->prism();
  deployments.push_back(make_deployment(&server_prism, 7, corpus_size));
  deployments.push_back(make_deployment(&server_prism, 9, corpus_size));

  std::vector<Cell> cells;

  // ---- solve sweep: connections x tenants, byte-verified ----------------
  {
    SensingEngine engine(0);  // hardware thread count
    net::ServerConfig server_config;
    server_config.reactors = 2;
    net::Server server(server_prism, engine, server_config);
    server.start();
    std::printf("  solve: server on 127.0.0.1:%u, %zu engine thread(s), "
                "2 reactors, corpus %zu rounds/tenant\n\n",
                static_cast<unsigned>(server.port()), engine.n_threads(),
                corpus_size);

    const std::vector<std::size_t> tenant_counts =
        quick ? std::vector<std::size_t>{1, 2}
              : std::vector<std::size_t>{1, 3};
    const std::vector<std::size_t> client_counts =
        quick ? std::vector<std::size_t>{1, 2}
              : std::vector<std::size_t>{1, 4, 8};
    const std::vector<std::size_t> depths =
        quick ? std::vector<std::size_t>{4}
              : std::vector<std::size_t>{1, 8};
    const std::size_t windows = quick ? 3 : 10;

    // In-process reference: the default deployment's corpus through
    // sense_batch on the same engine, 8 rounds per call, as many rounds
    // as the 4-client cell serves. CI gates the served cells against it.
    {
      constexpr std::size_t kBatch = 8;  // divides both corpus sizes
      const Deployment& dep = deployments[0];
      const std::span<const RoundTrace> corpus(dep.corpus);
      const std::size_t n_batches = 4 * windows;
      // Warm-up: the first solve builds the geometry cache.
      (void)server_prism.sense_batch(corpus.first(kBatch), engine,
                                     dep.bed->tag_id());

      std::vector<double> batch_ms;
      const auto t0 = Clock::now();
      for (std::size_t b = 0; b < n_batches; ++b) {
        const std::size_t first = (b * kBatch) % corpus.size();
        const auto b0 = Clock::now();
        const std::vector<SensingResult> results = server_prism.sense_batch(
            corpus.subspan(first, kBatch), engine, dep.bed->tag_id());
        batch_ms.push_back(1e3 * seconds_since(b0));
        for (std::size_t d = 0; d < kBatch; ++d) {
          if (net::encode_sense_response(results[d]) !=
              dep.expected[first + d]) {
            std::fprintf(stderr, "FAIL: in-process mismatch for round %zu\n",
                         first + d);
            return 1;
          }
        }
      }
      const double elapsed = seconds_since(t0);

      Cell cell;
      cell.mode = "solve-inproc";
      cell.tenants = 1;
      cell.clients = 1;
      cell.depth = kBatch;
      cell.requests_per_s = static_cast<double>(n_batches * kBatch) / elapsed;
      cell.p50_ms = percentile(batch_ms, 50.0);
      cell.p99_ms = percentile(batch_ms, 99.0);
      cells.push_back(cell);
      std::printf("  in-process sense_batch of %zu: %.1f req/s, p50 %.2f ms, "
                  "p99 %.2f ms\n\n",
                  kBatch, cell.requests_per_s, cell.p50_ms, cell.p99_ms);
    }

    std::printf("  %-8s %-8s %-8s %-14s %-10s %s\n", "tenants", "clients",
                "depth", "req/s", "p50[ms]", "p99[ms]");
    for (std::size_t n_tenants : tenant_counts) {
      for (std::size_t n_clients : client_counts) {
        for (std::size_t depth : depths) {
          std::vector<ClientOutcome> outcomes(n_clients);
          const auto t0 = Clock::now();
          std::vector<std::thread> threads;
          for (std::size_t c = 0; c < n_clients; ++c) {
            threads.emplace_back([&, c] {
              ClientOutcome& out = outcomes[c];
              const Deployment& dep = deployments[c % n_tenants];
              try {
                net::ClientConfig config;
                config.port = server.port();
                config.io_timeout_s = 120.0;
                net::Client client(config);
                if (c % n_tenants != 0) {
                  client.setup_session(dep.bed->prism().config().geometry,
                                       dep.bed->prism().calibrations(),
                                       /*enable_drift=*/false);
                }
                std::size_t cursor = c;  // offset clients across the corpus
                for (std::size_t w = 0; w < windows; ++w) {
                  const auto w0 = Clock::now();
                  std::vector<std::size_t> sent;
                  for (std::size_t d = 0; d < depth; ++d) {
                    const std::size_t k = cursor++ % dep.corpus.size();
                    client.send_sense(dep.corpus[k], dep.bed->tag_id());
                    sent.push_back(k);
                  }
                  for (std::size_t k : sent) {
                    const net::Frame frame = client.read_frame();
                    if (frame.type != net::FrameType::kSenseResponse ||
                        frame.payload != dep.expected[k]) {
                      out.error = "response mismatch for round " +
                                  std::to_string(k);
                      return;
                    }
                    ++out.completed;
                  }
                  out.window_ms.push_back(1e3 * seconds_since(w0));
                }
              } catch (const std::exception& e) {
                out.error = e.what();
              }
            });
          }
          for (std::thread& t : threads) t.join();
          const double elapsed = seconds_since(t0);

          std::vector<double> window_ms;
          std::size_t completed = 0;
          for (const ClientOutcome& out : outcomes) {
            if (!out.error.empty()) {
              std::fprintf(stderr, "FAIL: %s\n", out.error.c_str());
              return 1;
            }
            window_ms.insert(window_ms.end(), out.window_ms.begin(),
                             out.window_ms.end());
            completed += out.completed;
          }

          Cell cell;
          cell.mode = "solve";
          cell.reactors = 2;
          cell.tenants = n_tenants;
          cell.clients = n_clients;
          cell.depth = depth;
          cell.requests_per_s =
              elapsed > 0.0 ? static_cast<double>(completed) / elapsed : 0.0;
          cell.p50_ms = percentile(window_ms, 50.0);
          cell.p99_ms = percentile(window_ms, 99.0);
          cells.push_back(cell);
          std::printf("  %-8zu %-8zu %-8zu %-14.1f %-10.2f %.2f\n",
                      cell.tenants, cell.clients, cell.depth,
                      cell.requests_per_s, cell.p50_ms, cell.p99_ms);
        }
      }
    }

    server.stop();
    const net::ServerStats stats = server.stats();
    std::printf("\n  solve server: %llu requests completed, %llu failed, "
                "%llu backpressure pauses, %llu tenants resident\n\n",
                static_cast<unsigned long long>(stats.requests_completed),
                static_cast<unsigned long long>(stats.requests_failed),
                static_cast<unsigned long long>(stats.backpressure_pauses),
                static_cast<unsigned long long>(stats.tenants_resident));
    if (stats.requests_failed != 0) {
      std::fprintf(stderr, "FAIL: server reported failed requests\n");
      return 1;
    }
  }

  // ---- wire sweep: reactor scaling on inline-answered frames ------------
  {
    const std::size_t connections = quick ? 4 : 8;
    const std::size_t depth = 64;
    // Each cell times a fixed interval that starts once every client has
    // connected: thread start-up and connection setup stay out of the
    // rate, and every connection keeps its reactor busy for the whole
    // interval however the kernel spread the connections.
    const double interval_s = quick ? 0.05 : 0.25;
    const std::vector<std::size_t> reactor_counts{1, 2, 4};

    std::printf("  wire: %zu connections, %zu pings/window, %.2f s per cell, "
                "%zu core(s)\n\n",
                connections, depth, interval_s, cores);
    std::printf("  %-10s %-14s %-10s %s\n", "reactors", "req/s", "p50[ms]",
                "p99[ms]");
    for (std::size_t n_reactors : reactor_counts) {
      SensingEngine engine(1);  // pings never reach the engine
      net::ServerConfig server_config;
      server_config.reactors = n_reactors;
      server_config.max_pending_per_connection = depth * 2;
      net::Server server(server_prism, engine, server_config);
      server.start();

      std::vector<ClientOutcome> outcomes(connections);
      std::latch connected(static_cast<std::ptrdiff_t>(connections));
      std::latch go(1);
      Clock::time_point t0;
      Clock::time_point t_end;
      std::vector<std::thread> threads;
      for (std::size_t c = 0; c < connections; ++c) {
        threads.emplace_back([&, c] {
          ClientOutcome& out = outcomes[c];
          // One pre-encoded batch per window: a single write syscall
          // ships `depth` pings, keeping the client side cheap so the
          // reactor threads are the measured bottleneck.
          std::vector<std::uint8_t> batch;
          for (std::size_t d = 0; d < depth; ++d) {
            net::append_frame(batch, net::FrameType::kPing,
                              static_cast<std::uint32_t>(d), {});
          }
          std::unique_ptr<net::Client> client;
          try {
            net::ClientConfig config;
            config.port = server.port();
            config.io_timeout_s = 120.0;
            client = std::make_unique<net::Client>(config);
          } catch (const std::exception& e) {
            out.error = e.what();
          }
          connected.count_down();
          go.wait();
          if (!client) return;
          try {
            while (Clock::now() < t_end) {
              const auto w0 = Clock::now();
              client->send_bytes(batch);
              for (std::size_t d = 0; d < depth; ++d) {
                const net::Frame frame = client->read_frame();
                if (frame.type != net::FrameType::kPong ||
                    frame.seq != static_cast<std::uint32_t>(d)) {
                  out.error = "pong mismatch at depth " + std::to_string(d);
                  return;
                }
                ++out.completed;
              }
              out.window_ms.push_back(1e3 * seconds_since(w0));
            }
          } catch (const std::exception& e) {
            out.error = e.what();
          }
        });
      }
      connected.wait();
      t0 = Clock::now();
      t_end = t0 + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(interval_s));
      go.count_down();
      for (std::thread& t : threads) t.join();
      const double elapsed = seconds_since(t0);
      server.stop();

      std::vector<double> window_ms;
      std::size_t completed = 0;
      for (const ClientOutcome& out : outcomes) {
        if (!out.error.empty()) {
          std::fprintf(stderr, "FAIL: %s\n", out.error.c_str());
          return 1;
        }
        window_ms.insert(window_ms.end(), out.window_ms.begin(),
                         out.window_ms.end());
        completed += out.completed;
      }

      Cell cell;
      cell.mode = "wire";
      cell.reactors = n_reactors;
      cell.tenants = 1;
      cell.clients = connections;
      cell.depth = depth;
      cell.requests_per_s =
          elapsed > 0.0 ? static_cast<double>(completed) / elapsed : 0.0;
      cell.p50_ms = percentile(window_ms, 50.0);
      cell.p99_ms = percentile(window_ms, 99.0);
      cells.push_back(cell);
      std::printf("  %-10zu %-14.1f %-10.2f %.2f\n", cell.reactors,
                  cell.requests_per_s, cell.p50_ms, cell.p99_ms);
    }
  }

  std::printf("\n  JSON:\n[");
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const Cell& cell = cells[i];
    std::printf(
        "%s\n  {\"mode\": \"%s\", \"reactors\": %zu, \"tenants\": %zu, "
        "\"clients\": %zu, \"depth\": %zu, \"cores\": %zu, "
        "\"requests_per_s\": %.1f, \"p50_ms\": %.3f, \"p99_ms\": %.3f}",
        i == 0 ? "" : ",", cell.mode, cell.reactors, cell.tenants,
        cell.clients, cell.depth, cores, cell.requests_per_s, cell.p50_ms,
        cell.p99_ms);
  }
  std::printf("\n]\n");
  return 0;
}
