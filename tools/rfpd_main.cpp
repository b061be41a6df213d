/// rfpd — the RF-Prism sensing daemon.
///
/// Serves the rfp::net wire protocol: clients send hop rounds
/// (kSenseRequest frames), rfpd solves them on a SensingEngine thread
/// pool and answers with SensingResult frames, in per-connection request
/// order. The deployment (geometry + calibration) is the standard
/// simulated testbed keyed by --seed, so any client built against the
/// same seed agrees on what the antennas look like.
///
///   rfpd [--port N] [--bind ADDR] [--threads N] [--reactors N]
///        [--seed S] [--antennas N] [--multipath] [--idle-timeout SEC]
///        [--max-conns N] [--max-pending N] [--max-tenants N]
///        [--pool-buffers N]
///        [--geometry FILE] [--calibration FILE] [--drift] [--track]
///
/// --port 0 binds an ephemeral port; the actual port is printed on the
/// "listening on" line (scripts parse it there). --reactors runs N
/// SO_REUSEPORT poll loops; --geometry/--calibration serve a surveyed
/// deployment from files instead of the seed-keyed testbed (wire-v2
/// sessions can still ship their own, bounded by --max-tenants).
/// SIGINT/SIGTERM trigger a graceful shutdown: the listeners close,
/// in-flight solves drain, and every accepted request still receives its
/// response.

#include <atomic>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

#include "rfp/core/engine.hpp"
#include "rfp/exp/testbed.hpp"
#include "rfp/io/calibration_io.hpp"
#include "rfp/io/geometry_io.hpp"
#include "rfp/net/server.hpp"

namespace {

using namespace rfp;

struct DaemonOptions {
  std::string bind = "127.0.0.1";
  std::uint16_t port = 7461;      ///< 0 picks an ephemeral port
  std::size_t threads = 0;        ///< engine threads; 0 = hardware
  std::size_t reactors = 1;       ///< poll-loop threads (SO_REUSEPORT)
  std::uint64_t seed = 42;        ///< deployment seed
  std::size_t antennas = 4;       ///< 4 = the fault-tolerance rig
  bool multipath = false;
  double idle_timeout_s = 60.0;
  std::size_t max_connections = 64;
  std::size_t max_pending = 32;   ///< per-connection backpressure limit
  std::size_t max_tenants = 16;   ///< deployment-registry capacity
  /// Per-reactor buffer-pool residency cap (freelist slots per size
  /// class); 0 keeps the BufferPoolConfig default.
  std::size_t pool_buffers = 0;
  bool drift = false;             ///< online drift self-calibration
  bool track = false;             ///< grant per-session trajectory tracking
  /// Serve a surveyed deployment from files instead of the seed-keyed
  /// testbed: --geometry replaces the default tenant's geometry,
  /// --calibration its calibration database (either may be given alone).
  std::string geometry_path;
  std::string calibration_path;
};

std::atomic<net::Server*> g_server{nullptr};

void stop_signal_handler(int) {
  // request_stop is async-signal-safe: atomic store + self-pipe write.
  if (net::Server* server = g_server.load(std::memory_order_relaxed)) {
    server->request_stop();
  }
}

/// Run the daemon to completion: serve until SIGINT/SIGTERM, then print
/// the drain-complete stats (per-tenant included).
int run_daemon(const DaemonOptions& options) {
  TestbedConfig bed_config;
  bed_config.seed = options.seed;
  bed_config.n_antennas = options.antennas;
  bed_config.multipath_environment = options.multipath;
  const Testbed bed(bed_config);

  // Drift variant (same geometry + calibration; only the drift switch
  // differs). The default prism then owns the deployment's drift
  // estimate, shared by every sessionless request and every session or
  // stream that ships this same deployment.
  RfPrismConfig prism_config = bed.prism().config();
  prism_config.disentangle.drift.enable = options.drift;

  // Default deployment: the seed-keyed testbed, unless survey /
  // calibration files override it (the drift switch stays as chosen
  // above — files ship the site, never the solver).
  std::optional<RfPrism> pipeline;
  const bool file_deployment =
      !options.geometry_path.empty() || !options.calibration_path.empty();
  if (file_deployment) {
    if (!options.geometry_path.empty()) {
      prism_config.geometry = load_geometry(options.geometry_path);
    }
    pipeline.emplace(std::move(prism_config));
    if (!options.calibration_path.empty()) {
      pipeline->import_calibrations(
          load_calibrations(options.calibration_path));
    } else if (options.geometry_path.empty()) {
      pipeline->import_calibrations(bed.prism().calibrations());
    }
  } else {
    pipeline.emplace(bed.make_pipeline_variant(std::move(prism_config)));
  }
  const RfPrism& prism = *pipeline;

  SensingEngine engine(options.threads);

  net::ServerConfig server_config;
  server_config.bind_address = options.bind;
  server_config.port = options.port;
  server_config.reactors = options.reactors == 0 ? 1 : options.reactors;
  server_config.max_connections = options.max_connections;
  server_config.max_pending_per_connection = options.max_pending;
  server_config.max_tenants = options.max_tenants;
  server_config.idle_timeout_s = options.idle_timeout_s;
  server_config.tracking.enable = options.track;
  if (options.pool_buffers > 0) {
    server_config.pool.max_buffers_per_class = options.pool_buffers;
  }
  net::Server server(prism, engine, server_config);

  g_server.store(&server, std::memory_order_relaxed);
  std::signal(SIGINT, stop_signal_handler);
  std::signal(SIGTERM, stop_signal_handler);

  if (file_deployment) {
    std::printf("rfpd: deployment from %s%s%s, %zu antennas, "
                "%zu worker thread(s), %zu reactor(s)\n",
                options.geometry_path.empty() ? "seed geometry"
                                              : options.geometry_path.c_str(),
                options.calibration_path.empty() ? "" : " + ",
                options.calibration_path.c_str(),
                prism.config().geometry.n_antennas(), engine.n_threads(),
                server_config.reactors);
  } else {
    std::printf("rfpd: deployment seed %llu, %zu antennas, "
                "%zu worker thread(s), %zu reactor(s)\n",
                static_cast<unsigned long long>(options.seed),
                options.antennas, engine.n_threads(), server_config.reactors);
  }
  if (options.drift) {
    std::printf("rfpd: drift self-calibration enabled\n");
  }
  if (options.track) {
    std::printf("rfpd: trajectory tracking enabled (per-session opt-in)\n");
  }
  std::printf("rfpd: listening on %s:%u\n", options.bind.c_str(),
              static_cast<unsigned>(server.port()));
  std::fflush(stdout);

  server.run();  // returns once a stop request has drained

  g_server.store(nullptr, std::memory_order_relaxed);
  const net::ServerStats stats = server.stats();
  std::printf("rfpd: shut down cleanly\n");
  std::printf("  connections  accepted %llu  rejected %llu  idle-closed %llu"
              "  protocol-closed %llu\n",
              static_cast<unsigned long long>(stats.connections_accepted),
              static_cast<unsigned long long>(stats.connections_rejected),
              static_cast<unsigned long long>(stats.connections_closed_idle),
              static_cast<unsigned long long>(
                  stats.connections_closed_protocol));
  std::printf("  requests     completed %llu  failed %llu  "
              "backpressure pauses %llu\n",
              static_cast<unsigned long long>(stats.requests_completed),
              static_cast<unsigned long long>(stats.requests_failed),
              static_cast<unsigned long long>(stats.backpressure_pauses));
  std::printf("  bytes        in %llu  out %llu\n",
              static_cast<unsigned long long>(stats.bytes_received),
              static_cast<unsigned long long>(stats.bytes_sent));
  std::printf("  datapath     pool hits %llu  misses %llu  discards %llu"
              "  resident %llu B\n",
              static_cast<unsigned long long>(stats.pool_hits),
              static_cast<unsigned long long>(stats.pool_misses),
              static_cast<unsigned long long>(stats.pool_discards),
              static_cast<unsigned long long>(stats.pool_bytes_resident));
  std::printf("               frames spliced %llu  coalesced %llu"
              " (%llu B)  writev calls %llu\n",
              static_cast<unsigned long long>(stats.frames_spliced),
              static_cast<unsigned long long>(stats.frames_coalesced),
              static_cast<unsigned long long>(stats.bytes_coalesced),
              static_cast<unsigned long long>(stats.writev_calls));
  std::printf("  sessions     opened %llu  closed %llu  tenants %zu"
              "  evicted %llu\n",
              static_cast<unsigned long long>(stats.sessions_opened),
              static_cast<unsigned long long>(stats.sessions_closed),
              stats.tenants_resident,
              static_cast<unsigned long long>(stats.tenants_evicted));
  if (stats.stream_reads > 0) {
    std::printf("  streaming    reads %llu  results %llu  evictions %llu"
                "  track events %llu\n",
                static_cast<unsigned long long>(stats.stream_reads),
                static_cast<unsigned long long>(stats.stream_results),
                static_cast<unsigned long long>(stats.stream_evictions),
                static_cast<unsigned long long>(stats.stream_track_events));
  }
  for (const TenantStats& tenant : server.tenant_stats()) {
    std::printf("  tenant %016llx%s  %zu antennas%s  sessions %llu"
                "  requests %llu/%llu  stream %llu/%llu\n",
                static_cast<unsigned long long>(tenant.digest),
                tenant.is_default ? " (default)" : "",
                tenant.n_antennas, tenant.drift_enabled ? "  drift" : "",
                static_cast<unsigned long long>(tenant.sessions_opened),
                static_cast<unsigned long long>(tenant.requests_completed),
                static_cast<unsigned long long>(tenant.requests_failed),
                static_cast<unsigned long long>(tenant.stream_reads),
                static_cast<unsigned long long>(tenant.stream_emissions));
  }
  if (options.drift) {
    std::printf("  drift        rounds %llu  outliers %llu  alarms %llu"
                "  active %llu  dropped-ports %llu\n",
                static_cast<unsigned long long>(stats.drift_rounds_observed),
                static_cast<unsigned long long>(stats.drift_outliers_rejected),
                static_cast<unsigned long long>(stats.drift_alarms_raised),
                static_cast<unsigned long long>(stats.drift_alarms_active),
                static_cast<unsigned long long>(stats.drift_ports_dropped));
  }
  return 0;
}


int usage() {
  std::fprintf(stderr,
               "usage: rfpd [--port N] [--bind ADDR] [--threads N]\n"
               "            [--reactors N] [--seed S] [--antennas N]\n"
               "            [--multipath] [--idle-timeout SEC]\n"
               "            [--max-conns N] [--max-pending N]\n"
               "            [--max-tenants N] [--pool-buffers N]\n"
               "            [--geometry FILE] [--calibration FILE]\n"
               "            [--drift] [--track]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  DaemonOptions options;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      auto next = [&]() -> const char* {
        if (i + 1 >= argc) {
          std::fprintf(stderr, "missing value for %s\n", arg.c_str());
          throw std::invalid_argument(arg);
        }
        return argv[++i];
      };
      if (arg == "--port") {
        options.port = static_cast<std::uint16_t>(std::stoul(next()));
      } else if (arg == "--bind") {
        options.bind = next();
      } else if (arg == "--threads") {
        options.threads = std::stoull(next());
      } else if (arg == "--reactors") {
        options.reactors = std::stoull(next());
      } else if (arg == "--seed") {
        options.seed = std::stoull(next());
      } else if (arg == "--antennas") {
        options.antennas = std::stoull(next());
      } else if (arg == "--multipath") {
        options.multipath = true;
      } else if (arg == "--idle-timeout") {
        options.idle_timeout_s = std::stod(next());
      } else if (arg == "--max-conns") {
        options.max_connections = std::stoull(next());
      } else if (arg == "--max-pending") {
        options.max_pending = std::stoull(next());
      } else if (arg == "--max-tenants") {
        options.max_tenants = std::stoull(next());
      } else if (arg == "--pool-buffers") {
        options.pool_buffers = std::stoull(next());
      } else if (arg == "--geometry") {
        options.geometry_path = next();
      } else if (arg == "--calibration") {
        options.calibration_path = next();
      } else if (arg == "--drift") {
        options.drift = true;
      } else if (arg == "--track") {
        options.track = true;
      } else {
        std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
        return usage();
      }
    }
  } catch (const std::invalid_argument&) {
    return usage();
  } catch (const std::out_of_range&) {
    std::fprintf(stderr, "option value out of range\n");
    return usage();
  }

  try {
    return run_daemon(options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rfpd: fatal: %s\n", e.what());
    return 1;
  }
}
