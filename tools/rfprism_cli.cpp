/// rfprism — command-line front end for the RF-Prism library.
///
///   rfprism simulate [options]   run sensing trials on the simulated
///                                testbed and print per-trial results
///   rfprism track [options]      run a multi-tag conveyor scenario
///                                through the trajectory engine and print
///                                the track event stream; --record FILE
///                                saves the raw read stream as a read log,
///                                --replay FILE streams a saved read log
///                                through the engine instead and dumps the
///                                trajectories as JSON
///   rfprism replay <trace>       replay a saved hop round through the
///                                standard deployment's pipeline
///   rfprism inspect <trace>      print structural stats of a saved round
///   rfprism materials            list the material database
///   rfprism stream [options]     push faulted reader streams through the
///                                StreamingSensor and print emissions,
///                                ingestion stats, and port health
///   rfprism batch [options]      sense a batch of simulated rounds
///                                through a SensingEngine thread pool and
///                                report throughput (optionally verifying
///                                bit-identity with the sequential path)
///   rfprism serve [options]      run the rfpd sensing daemon in-process
///                                (serve rounds over the rfp::net wire
///                                protocol until SIGINT/SIGTERM)
///   rfprism request [options]    send one round to a running daemon and
///                                print the sensed result (or --ping);
///                                --session ships this client's deployment
///                                first (wire v2 multi-tenancy)
///   rfprism export [options]     write the seed-keyed deployment's survey
///                                (--geometry FILE) and/or calibration
///                                database (--calibration FILE) for
///                                `rfpd --geometry/--calibration`
///
/// `stream` also speaks the wire: with --port (and optionally --host) the
/// faulted reads are shipped to a running daemon over a v2 session
/// (kStreamPush) instead of a local StreamingSensor.
///
/// `simulate` options:
///   --trials N        number of trials (default 20)
///   --material NAME   target material (default plastic; "all" cycles)
///   --alpha DEG       fixed tag rotation; omit for random
///   --multipath       use the cluttered environment
///   --seed S          deployment seed (default 42)
///   --csv             machine-readable per-trial output
///   --dump-trace F    additionally save the first trial's round to F

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "rfp/common/angles.hpp"
#include "rfp/common/error.hpp"
#include "rfp/common/constants.hpp"
#include "rfp/common/rng.hpp"
#include "rfp/dsp/stats.hpp"
#include "rfp/core/engine.hpp"
#include "rfp/core/streaming.hpp"
#include "rfp/exp/testbed.hpp"
#include "rfp/io/trace_io.hpp"
#include "rfp/net/client.hpp"
#include "rfp/rfsim/faults.hpp"
#include "rfp/track/tracking_engine.hpp"
#include "rfpd_common.hpp"

namespace {

using namespace rfp;

int usage() {
  std::fprintf(stderr,
               "usage: rfprism <simulate|track|replay|inspect|materials|stream|batch|serve|request|export> [args]\n"
               "  rfprism simulate [--trials N] [--material NAME|all]\n"
               "                   [--alpha DEG] [--multipath] [--seed S]\n"
               "                   [--csv] [--dump-trace FILE]\n"
               "  rfprism replay <trace-file> [--seed S]\n"
               "  rfprism inspect <trace-file>\n"
               "  rfprism track [--rounds N] [--tags N] [--seed S] [--json]\n"
               "                [--record FILE]\n"
               "  rfprism track --replay FILE [--seed S] [--antennas N]\n"
               "  rfprism materials\n"
               "  rfprism stream [--rounds N] [--fault-intensity X]\n"
               "                 [--dead PORT] [--antennas N] [--seed S]\n"
               "                 [--warm] [--drift] [--track]\n"
               "                 [--host H] [--port N] [--timeout SEC]\n"
               "  rfprism batch [--rounds N] [--threads N] [--material NAME|all]\n"
               "                [--multipath] [--seed S] [--verify]\n"
               "  rfprism serve [--port N] [--bind ADDR] [--threads N]\n"
               "                [--reactors N] [--seed S] [--antennas N]\n"
               "                [--multipath] [--idle-timeout SEC]\n"
               "                [--max-conns N] [--max-tenants N]\n"
               "                [--pool-buffers N]\n"
               "                [--geometry FILE] [--calibration FILE]\n"
               "                [--drift] [--track]\n"
               "  rfprism request [--host H] [--port N] [--trace FILE]\n"
               "                  [--trial K] [--seed S] [--antennas N]\n"
               "                  [--multipath] [--material NAME] [--tag ID]\n"
               "                  [--timeout SEC] [--ping] [--session]\n"
               "  rfprism export [--seed S] [--antennas N] [--multipath]\n"
               "                 [--geometry FILE] [--calibration FILE]\n");
  return 2;
}

/// Malformed command line (missing value, unknown option, bad operand):
/// main() answers with usage() and exit code 2. Distinct from rfp::Error
/// so data/runtime failures keep their "error: ..." reporting.
struct UsageError {};

struct SimulateOptions {
  int trials = 20;
  std::string material = "plastic";
  std::optional<double> alpha_rad;
  bool multipath = false;
  std::uint64_t seed = 42;
  bool csv = false;
  std::string dump_trace;
};

int run_simulate(const SimulateOptions& options) {
  TestbedConfig config;
  config.seed = options.seed;
  config.multipath_environment = options.multipath;
  Testbed bed(config);

  const auto materials = paper_materials();
  Rng rng(mix_seed(options.seed, 0xC11));
  std::vector<double> loc_cm, ori_deg;
  int rejected = 0;

  if (options.csv) {
    std::printf("trial,material,true_x,true_y,true_alpha_deg,est_x,est_y,"
                "est_alpha_deg,kt_rad_per_ghz,bt_rad,loc_err_cm,"
                "ori_err_deg,valid\n");
  }

  for (int trial = 0; trial < options.trials; ++trial) {
    const std::string material =
        options.material == "all"
            ? materials[static_cast<std::size_t>(trial) % materials.size()]
            : options.material;
    const Vec2 p{0.3 + 1.4 * rng.uniform(), 0.3 + 1.4 * rng.uniform()};
    const double alpha =
        options.alpha_rad ? *options.alpha_rad : rng.uniform(0.0, kPi);
    const TagState state = bed.tag_state(p, alpha, material);
    const RoundTrace round =
        bed.collect(state, 1000 + static_cast<std::uint64_t>(trial));
    if (trial == 0 && !options.dump_trace.empty()) {
      save_round(options.dump_trace, round);
      std::fprintf(stderr, "saved trial 0 round to %s\n",
                   options.dump_trace.c_str());
    }
    const SensingResult r = bed.prism().sense(round, bed.tag_id());
    if (!r.valid) {
      ++rejected;
      if (options.csv) {
        std::printf("%d,%s,%.4f,%.4f,%.2f,,,,,,,,0\n", trial,
                    material.c_str(), p.x, p.y, rad2deg(alpha));
      }
      continue;
    }
    const double loc = 100.0 * distance(r.position, state.position);
    const double ori = rad2deg(planar_angle_error(r.alpha, alpha));
    loc_cm.push_back(loc);
    ori_deg.push_back(ori);
    if (options.csv) {
      std::printf("%d,%s,%.4f,%.4f,%.2f,%.4f,%.4f,%.2f,%.4f,%.4f,%.2f,%.2f,1\n",
                  trial, material.c_str(), p.x, p.y, rad2deg(alpha),
                  r.position.x, r.position.y, rad2deg(r.alpha), r.kt * 1e9,
                  r.bt, loc, ori);
    } else {
      std::printf("trial %3d  %-8s  loc err %6.2f cm   orient err %6.2f deg"
                  "   kt %6.2f rad/GHz\n",
                  trial, material.c_str(), loc, ori, r.kt * 1e9);
    }
  }

  if (!options.csv && !loc_cm.empty()) {
    std::printf("\n%zu/%d valid:  loc mean %.2f cm (p90 %.2f)   orient mean "
                "%.2f deg (p90 %.2f)   rejected %d\n",
                loc_cm.size(), options.trials, mean(loc_cm),
                percentile(loc_cm, 90.0), mean(ori_deg),
                percentile(ori_deg, 90.0), rejected);
  }
  return 0;
}

int run_replay(const std::string& path, std::uint64_t seed) {
  TestbedConfig config;
  config.seed = seed;
  const Testbed bed(config);
  const RoundTrace round = load_round(path);
  const SensingResult r = bed.prism().sense(round, bed.tag_id());
  if (!r.valid) {
    std::printf("rejected: %s\n", to_string(r.reject_reason));
    return 1;
  }
  std::printf("position    (%.4f, %.4f, %.4f) m\n", r.position.x,
              r.position.y, r.position.z);
  std::printf("orientation %.2f deg\n", rad2deg(r.alpha));
  std::printf("kt          %.4f rad/GHz\n", r.kt * 1e9);
  std::printf("bt          %.4f rad\n", r.bt);
  std::printf("residuals   slope %.3g rad/Hz, intercept %.3g rad\n",
              r.position_residual, r.orientation_residual);
  return 0;
}

int run_inspect(const std::string& path) {
  const RoundTrace round = load_round(path);
  std::printf("antennas    %zu\n", round.n_antennas);
  std::printf("dwells      %zu\n", round.dwells.size());
  std::printf("duration    %.2f s\n", round.duration_s);
  std::size_t reads = 0;
  double f_lo = 1e18, f_hi = 0.0;
  for (const auto& dwell : round.dwells) {
    reads += dwell.phases.size();
    f_lo = std::min(f_lo, dwell.frequency_hz);
    f_hi = std::max(f_hi, dwell.frequency_hz);
  }
  std::printf("reads       %zu\n", reads);
  std::printf("band        %.2f - %.2f MHz\n", f_lo / 1e6, f_hi / 1e6);
  return 0;
}

struct TrackOptions {
  int rounds = 15;
  std::size_t tags = 3;
  std::uint64_t seed = 42;
  std::size_t antennas = 4;  ///< deployment convention (record and replay
                             ///< must agree, like `request` vs `serve`)
  bool json = false;
  std::string record_path;  ///< save the live read stream as a read log
  std::string replay_path;  ///< stream a saved read log instead
};

void print_track_event(const track::TrackEvent& e) {
  std::printf("%-8.1f %-8s %-8s %-9s %-9s (%5.2f, %5.2f)  %6.3f m/s  "
              "%7.1f deg  %+6.2f deg/s\n",
              e.time_s, e.tag_id.c_str(), track::to_string(e.kind),
              track::to_string(e.label), to_string(e.grade), e.position.x,
              e.position.y, e.velocity.norm(), rad2deg(e.angle_rad),
              rad2deg(e.rate_rad_s));
}

void dump_track_events_json(std::span<const track::TrackEvent> events) {
  std::printf("{\n  \"events\": [");
  for (std::size_t i = 0; i < events.size(); ++i) {
    const track::TrackEvent& e = events[i];
    std::printf("%s\n    {\"tag\": \"%s\", \"t\": %.6f, \"kind\": \"%s\", "
                "\"label\": \"%s\", \"grade\": \"%s\", \"accepted\": %s, "
                "\"x\": %.6f, \"y\": %.6f, \"vx\": %.6f, \"vy\": %.6f, "
                "\"position_variance\": %.8g, \"angle_rad\": %.6f, "
                "\"rate_rad_s\": %.6f, \"updates\": %llu}",
                i > 0 ? "," : "", e.tag_id.c_str(), e.time_s,
                track::to_string(e.kind), track::to_string(e.label),
                to_string(e.grade), e.fix_accepted ? "true" : "false",
                e.position.x, e.position.y, e.velocity.x, e.velocity.y,
                e.position_variance, e.angle_rad, e.rate_rad_s,
                static_cast<unsigned long long>(e.updates));
  }
  std::printf("\n  ]\n}\n");
}

void print_tracking_stats(const track::TrackingStats& stats) {
  std::printf("\ntracking stats\n");
  std::printf("  emissions consumed %llu\n",
              static_cast<unsigned long long>(stats.emissions_consumed));
  std::printf("  fixes accepted     %llu (degraded %llu, gated %llu)\n",
              static_cast<unsigned long long>(stats.fixes_accepted),
              static_cast<unsigned long long>(stats.degraded_fixes_accepted),
              static_cast<unsigned long long>(stats.fixes_gated));
  std::printf("  mobility rejects   %llu\n",
              static_cast<unsigned long long>(stats.mobility_rejects_seen));
  std::printf("  tracks             started %llu, confirmed %llu, coasted "
              "%llu, dropped %llu\n",
              static_cast<unsigned long long>(stats.tracks_started),
              static_cast<unsigned long long>(stats.tracks_confirmed),
              static_cast<unsigned long long>(stats.tracks_coasted),
              static_cast<unsigned long long>(stats.tracks_dropped));
}

/// Offline mode: stream a saved read log through a StreamingSensor +
/// TrackingEngine over the seed-keyed deployment (the same convention as
/// `rfprism request`: the log must have been captured against a
/// deployment with this seed/antenna count) and dump the trajectory
/// stream as JSON.
int run_track_replay(const TrackOptions& options) {
  std::vector<StreamRead> reads = load_read_log(options.replay_path);
  if (reads.empty()) {
    std::fprintf(stderr, "error: %s holds no reads\n",
                 options.replay_path.c_str());
    return 1;
  }
  // Replay in stream-time order regardless of how the log was captured
  // (per-tag recorders write grouped logs): out-of-order reads behind an
  // already-polled clock would be dropped as stale. Stable, so same-time
  // reads keep their file order and the replay stays deterministic.
  std::stable_sort(reads.begin(), reads.end(),
                   [](const StreamRead& a, const StreamRead& b) {
                     return a.time_s < b.time_s;
                   });

  TestbedConfig config;
  config.seed = options.seed;
  config.n_antennas = options.antennas;
  const Testbed bed(config);

  track::TrackingConfig tracking;
  tracking.enable = true;
  track::TrackingEngine engine(tracking);
  StreamingSensor sensor(bed.prism(), StreamingConfig{});
  sensor.attach_track_sink(&engine);

  // Poll once per second of stream time so lifecycle transitions land at
  // deterministic clock ticks, then flush far past the drop horizon so
  // every surviving track closes with a kDrop.
  std::vector<track::TrackEvent> events;
  const auto drain = [&](double now_s) {
    (void)sensor.poll(now_s);
    std::vector<track::TrackEvent> batch = engine.take_events();
    events.insert(events.end(), batch.begin(), batch.end());
  };
  double poll_clock = std::floor(reads.front().time_s) + 1.0;
  double last_s = reads.front().time_s;
  for (const StreamRead& read : reads) {
    while (read.time_s >= poll_clock) {
      drain(poll_clock);
      poll_clock += 1.0;
    }
    sensor.push(read);
    last_s = std::max(last_s, read.time_s);
  }
  drain(last_s + tracking.drop_after_s + 1000.0);

  dump_track_events_json(events);
  return events.empty() ? 1 : 0;
}

int run_track(const TrackOptions& options) {
  if (!options.replay_path.empty()) return run_track_replay(options);

  // A conveyor scenario: `tags` tags on parallel lanes step +5 cm along x
  // between short hop rounds (static *within* each round, per §V-C), and
  // the last tag also rotates steadily to exercise the mod-pi unwrapper.
  // All reads interleave through one StreamingSensor; the TrackingEngine
  // rides behind it as the track sink.
  TestbedConfig config;
  config.seed = options.seed;
  config.n_antennas = options.antennas;  // same convention as --replay
  config.reader.dwell_s = 0.05;  // short rounds: visible inter-round motion
  const Testbed bed(config);

  track::TrackingConfig tracking;
  tracking.enable = true;
  track::TrackingEngine engine(tracking);
  StreamingSensor sensor(bed.prism(), StreamingConfig{});
  sensor.attach_track_sink(&engine);

  const std::size_t n_tags = std::max<std::size_t>(options.tags, 1);
  const double step_x = 0.05;        // m per round
  const double spin = 0.2;           // rad per round, last tag only
  std::vector<StreamRead> recorded;
  std::vector<track::TrackEvent> all_events;
  const auto drain = [&]() {
    std::vector<track::TrackEvent> batch = engine.take_events();
    if (options.json) {
      all_events.insert(all_events.end(), batch.begin(), batch.end());
    } else {
      for (const track::TrackEvent& e : batch) print_track_event(e);
    }
  };

  if (!options.json) {
    std::printf("%-8s %-8s %-8s %-9s %-9s %-15s %-11s %-9s %s\n", "t[s]",
                "tag", "event", "label", "grade", "position", "speed",
                "angle", "rate");
  }
  double clock = 0.0;
  for (int k = 0; k < options.rounds; ++k) {
    double duration = 0.0;
    for (std::size_t i = 0; i < n_tags; ++i) {
      const Vec2 truth{0.35 + step_x * k, 0.5 + 0.3 * static_cast<double>(i)};
      const double alpha =
          i + 1 == n_tags ? std::fmod(0.3 + spin * k, kPi) : 0.4;
      const RoundTrace round = bed.collect(
          bed.tag_state(truth, alpha, "plastic"),
          3000 + static_cast<std::uint64_t>(k) * n_tags + i);
      std::vector<TagRead> reads =
          round_to_reads(round, "tag-" + std::to_string(i + 1));
      for (TagRead& read : reads) read.time_s += clock;
      sensor.push(std::span<const TagRead>(reads.data(), reads.size()));
      if (!options.record_path.empty()) {
        recorded.insert(recorded.end(), reads.begin(), reads.end());
      }
      duration = std::max(duration, round.duration_s);
    }
    clock += duration + 1.0;
    (void)sensor.poll(clock);
    drain();
  }
  // Quiet site: flush pending rounds, then age every track to its drop.
  (void)sensor.poll(clock + tracking.drop_after_s + 1000.0);
  drain();

  if (options.json) {
    dump_track_events_json(all_events);
  } else {
    print_tracking_stats(engine.stats());
  }
  if (!options.record_path.empty()) {
    save_read_log(options.record_path, recorded);
    std::fprintf(stderr, "recorded %zu reads to %s\n", recorded.size(),
                 options.record_path.c_str());
  }
  return engine.stats().emissions_consumed > 0 ? 0 : 1;
}

struct StreamOptions {
  int rounds = 12;
  double intensity = 0.5;
  std::optional<std::size_t> dead_port;
  std::size_t antennas = 4;
  std::uint64_t seed = 42;
  bool warm = false;   ///< track-seeded warm-start solves
  bool drift = false;  ///< inject LO drift + run online self-calibration
  bool track = false;  ///< run a TrackingEngine over the emission stream
  // Remote mode (--port): ship the deployment over a wire-v2 session and
  // push the faulted reads to a running daemon instead of solving locally.
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;  ///< 0 = local StreamingSensor
  double timeout_s = 30.0;
};

int run_stream(const StreamOptions& options) {
  if (options.dead_port && *options.dead_port >= options.antennas) {
    std::fprintf(stderr, "error: --dead %zu out of range for %zu antennas\n",
                 *options.dead_port, options.antennas);
    return 1;
  }
  TestbedConfig config;
  config.seed = options.seed;
  config.n_antennas = options.antennas;
  Testbed bed(config);
  StreamingConfig streaming_config;
  streaming_config.enable_warm_start = options.warm;

  // With --drift the sensing pipeline runs its online self-calibration
  // loop (the StreamingSensor owns the estimator) against injected
  // per-antenna LO drift.
  const RfPrism* prism = &bed.prism();
  std::optional<RfPrism> drift_prism;
  if (options.drift) {
    RfPrismConfig prism_config = bed.prism().config();
    prism_config.disentangle.drift.enable = true;
    drift_prism.emplace(bed.make_pipeline_variant(std::move(prism_config)));
    prism = &*drift_prism;
  }
  // Remote mode: open a wire-v2 session carrying this deployment; the
  // daemon runs the per-session StreamingSensor, we just ship reads.
  std::optional<net::Client> client;
  std::optional<StreamingSensor> sensor;
  std::optional<track::TrackingEngine> engine;
  if (options.port != 0) {
    net::ClientConfig client_config;
    client_config.host = options.host;
    client_config.port = options.port;
    client_config.io_timeout_s = options.timeout_s;
    client.emplace(client_config);
    const net::SessionReady ready = client->setup_session(
        prism->config().geometry, prism->calibrations(), options.drift,
        options.track);
    std::printf("session tenant %016llx  (%u antennas%s%s) at %s:%u\n",
                static_cast<unsigned long long>(ready.digest),
                static_cast<unsigned>(ready.n_antennas),
                ready.drift_enabled ? ", drift" : "",
                ready.tracking_enabled ? ", tracking" : "",
                options.host.c_str(), static_cast<unsigned>(options.port));
    if (options.track && !ready.tracking_enabled) {
      std::fprintf(stderr,
                   "warning: daemon does not grant tracking "
                   "(run it with --track)\n");
    }
  } else {
    sensor.emplace(*prism, streaming_config);
    if (options.track) {
      track::TrackingConfig tracking;
      tracking.enable = true;
      engine.emplace(tracking);
      sensor->attach_track_sink(&*engine);
    }
  }

  FaultProfile profile = FaultProfile::scaled(options.intensity,
                                              mix_seed(options.seed, 0xFA17));
  if (options.dead_port) profile.dead_antennas.push_back(*options.dead_port);
  if (options.drift) {
    // Slow deterministic per-antenna drift: ~10 s of deployment time per
    // trial. Rates sized so the accumulated differential offset is large
    // enough to bias poses (and trip the intercept re-survey alarm over a
    // default-length run) without exceeding the correctable bound.
    profile.drift_round_period_s = 10.0;
    profile.slope_drift_rate = 1.5e-13;
    profile.intercept_drift_rate = 1e-5;
  }
  const FaultInjector injector(profile);

  // A static tag streamed round after round through a faulty site.
  const TagState state = bed.tag_state({0.8, 1.2}, 0.5, "plastic");
  double clock = 0.0;
  std::size_t emitted_total = 0;

  std::printf("%-8s %-10s %-12s %-10s %s\n", "t[s]", "grade", "loc err",
              "excluded", "reject reason");
  const auto print_emissions = [&](const std::vector<StreamedResult>& batch) {
    for (const auto& emitted : batch) {
      ++emitted_total;
      std::string excluded;
      for (std::size_t a : emitted.result.excluded_antennas) {
        excluded += (excluded.empty() ? "" : ",") + std::to_string(a);
      }
      if (excluded.empty()) excluded = "-";
      if (emitted.result.valid) {
        std::printf("%-8.1f %-10s %8.2f cm  %-10s %s\n", emitted.completed_at_s,
                    to_string(emitted.result.grade),
                    100.0 * distance(emitted.result.position, state.position),
                    excluded.c_str(), "-");
      } else {
        std::printf("%-8.1f %-10s %11s  %-10s %s\n", emitted.completed_at_s,
                    to_string(emitted.result.grade), "-", excluded.c_str(),
                    to_string(emitted.result.reject_reason));
      }
    }
  };
  std::vector<track::TrackEvent> events;
  const auto print_track_batch = [&](std::vector<track::TrackEvent> batch) {
    for (const track::TrackEvent& e : batch) print_track_event(e);
    events.insert(events.end(), std::make_move_iterator(batch.begin()),
                  std::make_move_iterator(batch.end()));
  };
  for (int k = 0; k < options.rounds; ++k) {
    const std::uint64_t trial = 5000 + static_cast<std::uint64_t>(k);
    const RoundTrace round = bed.collect(state, trial);
    auto reads = round_to_reads(round, bed.tag_id());
    for (auto& read : reads) read.time_s += clock;
    const std::vector<TagRead> faulted = injector.apply_stream(
        std::span<const TagRead>(reads.data(), reads.size()), trial);
    clock += round.duration_s + 1.0;

    if (client) {
      std::vector<track::TrackEvent> batch;
      print_emissions(client->push_stream(
          faulted, clock, client->session_tracking() ? &batch : nullptr));
      print_track_batch(std::move(batch));
    } else {
      sensor->push(std::span<const TagRead>(faulted.data(), faulted.size()));
      print_emissions(sensor->poll(clock));
      if (engine) print_track_batch(engine->take_events());
    }
  }
  // Flush anything still pending once the site goes quiet.
  if (client) {
    std::vector<track::TrackEvent> batch;
    print_emissions(client->push_stream(
        {}, clock + 1000.0, client->session_tracking() ? &batch : nullptr));
    print_track_batch(std::move(batch));
    client->close_session();
    std::printf("\nremote stream: %zu rounds emitted by the daemon",
                emitted_total);
    if (!events.empty()) {
      std::printf(", %zu track events", events.size());
    }
    std::printf("\n");
    return emitted_total > 0 ? 0 : 1;
  }
  print_emissions(sensor->poll(clock + 1000.0));
  if (engine) {
    print_track_batch(engine->take_events());
    print_tracking_stats(engine->stats());
  }

  const StreamingStats& stats = sensor->stats();
  std::printf("\nstream stats\n");
  std::printf("  reads accepted     %llu\n",
              static_cast<unsigned long long>(stats.reads_accepted));
  std::printf("  duplicates dropped %llu\n",
              static_cast<unsigned long long>(stats.duplicates_dropped));
  std::printf("  stale dropped      %llu\n",
              static_cast<unsigned long long>(stats.stale_dropped));
  std::printf("  pools pruned       %llu\n",
              static_cast<unsigned long long>(stats.stale_pools_pruned));
  std::printf("  rounds emitted     %llu (full %llu, degraded %llu, "
              "rejected %llu)\n",
              static_cast<unsigned long long>(stats.rounds_emitted),
              static_cast<unsigned long long>(stats.rounds_full),
              static_cast<unsigned long long>(stats.rounds_degraded),
              static_cast<unsigned long long>(stats.rounds_rejected));
  std::printf("  tags timed out     %llu\n",
              static_cast<unsigned long long>(stats.tags_timed_out));

  if (const AntennaHealthMonitor* health = sensor->health()) {
    std::printf("\nport health\n");
    for (std::size_t a = 0; a < health->n_antennas(); ++a) {
      const PortHealth& port = health->port(a);
      std::printf("  port %zu  %-12s rmse %.3f  read rate %.2f  "
                  "exclusion rate %.2f  rounds %zu\n",
                  a, port.quarantined ? "QUARANTINED" : "healthy",
                  port.ewma_rmse, port.ewma_read_rate,
                  port.ewma_exclusion_rate, port.rounds_observed);
    }
  }

  if (const DriftEstimator* drift = sensor->drift()) {
    const DriftStats drift_stats = drift->stats();
    std::printf("\ndrift self-calibration\n");
    std::printf("  rounds observed    %llu (skipped %llu)\n",
                static_cast<unsigned long long>(drift_stats.rounds_observed),
                static_cast<unsigned long long>(drift_stats.rounds_skipped));
    std::printf("  updates            %llu (outliers rejected %llu)\n",
                static_cast<unsigned long long>(drift_stats.updates_applied),
                static_cast<unsigned long long>(
                    drift_stats.outliers_rejected));
    std::printf("  corrections        %s\n",
                drift_stats.warmed_up ? "active" : "warming up");
    for (std::size_t a = 0; a < drift->n_antennas(); ++a) {
      const AntennaDriftState& st = drift->state()[a];
      std::printf("  port %zu  slope %+.3e rad/Hz  intercept %+.3f rad  "
                  "updates %llu%s\n",
                  a, st.slope, st.intercept,
                  static_cast<unsigned long long>(st.updates),
                  st.alarmed ? "  RE-SURVEY" : "");
    }
    for (const ReSurveyAlarm& alarm : drift->alarms()) {
      std::printf("  ALARM port %zu: re-survey recommended "
                  "(slope %+.3e rad/Hz, intercept %+.3f rad)\n",
                  alarm.antenna, alarm.slope_drift, alarm.intercept_drift);
    }
  }
  return emitted_total > 0 ? 0 : 1;
}

struct BatchOptions {
  int rounds = 64;
  std::size_t threads = 0;  // 0 = hardware concurrency
  std::string material = "all";
  bool multipath = false;
  std::uint64_t seed = 42;
  bool verify = false;
};

/// Exact equality on everything sensing computes. Bit-identity across
/// thread counts is a hard contract of sense_batch, so == (not a
/// tolerance) is the right comparison.
bool results_identical(const SensingResult& a, const SensingResult& b) {
  return a.valid == b.valid && a.reject_reason == b.reject_reason &&
         a.grade == b.grade && a.excluded_antennas == b.excluded_antennas &&
         a.unhealthy_antennas == b.unhealthy_antennas &&
         a.position.x == b.position.x && a.position.y == b.position.y &&
         a.position.z == b.position.z &&
         a.position_residual == b.position_residual && a.alpha == b.alpha &&
         a.polarization.x == b.polarization.x &&
         a.polarization.y == b.polarization.y &&
         a.polarization.z == b.polarization.z &&
         a.orientation_residual == b.orientation_residual && a.kt == b.kt &&
         a.bt == b.bt && a.material_signature == b.material_signature;
}

int run_batch(const BatchOptions& options) {
  TestbedConfig config;
  config.seed = options.seed;
  config.multipath_environment = options.multipath;
  Testbed bed(config);
  const RfPrism& prism = bed.prism();

  const auto materials = paper_materials();
  Rng rng(mix_seed(options.seed, 0xBA7C));
  const std::size_t n = static_cast<std::size_t>(options.rounds);
  std::vector<RoundTrace> rounds;
  std::vector<TagState> truth;
  rounds.reserve(n);
  truth.reserve(n);
  for (std::size_t k = 0; k < n; ++k) {
    const std::string material =
        options.material == "all" ? materials[k % materials.size()]
                                  : options.material;
    const Vec2 p{0.3 + 1.4 * rng.uniform(), 0.3 + 1.4 * rng.uniform()};
    const TagState state = bed.tag_state(p, rng.uniform(0.0, kPi), material);
    truth.push_back(state);
    rounds.push_back(bed.collect(state, 7000 + k));
  }

  SensingEngine engine(options.threads);
  std::printf("sensing %zu rounds on %zu thread(s)...\n", n,
              engine.n_threads());

  // Warm-up pass populates each per-thread workspace (and the geometry
  // cache) so the timed pass measures the steady-state solve path.
  (void)prism.sense_batch(rounds, engine, bed.tag_id());

  const auto t0 = std::chrono::steady_clock::now();
  const std::vector<SensingResult> results =
      prism.sense_batch(rounds, engine, bed.tag_id());
  const double elapsed_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  std::vector<double> loc_cm;
  std::size_t valid = 0;
  for (std::size_t k = 0; k < results.size(); ++k) {
    if (!results[k].valid) continue;
    ++valid;
    loc_cm.push_back(100.0 *
                     distance(results[k].position, truth[k].position));
  }
  std::printf("valid       %zu/%zu\n", valid, n);
  if (!loc_cm.empty()) {
    std::printf("loc err     mean %.2f cm   p90 %.2f cm\n", mean(loc_cm),
                percentile(loc_cm, 90.0));
  }
  std::printf("elapsed     %.3f s\n", elapsed_s);
  std::printf("throughput  %.1f rounds/s\n",
              elapsed_s > 0.0 ? static_cast<double>(n) / elapsed_s : 0.0);

  if (options.verify) {
    std::size_t mismatches = 0;
    for (std::size_t k = 0; k < results.size(); ++k) {
      const SensingResult sequential = prism.sense(rounds[k], bed.tag_id());
      if (!results_identical(results[k], sequential)) ++mismatches;
    }
    std::printf("verify      %zu/%zu bit-identical to sequential sense\n",
                n - mismatches, n);
    if (mismatches > 0) return 1;
  }
  return 0;
}

struct RequestOptions {
  std::string host = "127.0.0.1";
  std::uint16_t port = 7461;
  std::string trace;  ///< when set, send this saved round instead
  std::uint64_t seed = 42;
  int trial = 0;
  std::size_t antennas = 4;  ///< must match the daemon's deployment
  bool multipath = false;
  std::string material = "plastic";
  std::string tag = "tag-1";
  double timeout_s = 30.0;
  bool ping = false;
  /// Ship this client's seed-keyed deployment over a wire-v2 session
  /// before sensing, so the daemon solves against *our* geometry and
  /// calibration instead of its default tenant.
  bool session = false;
};

int run_request(const RequestOptions& options) {
  net::ClientConfig client_config;
  client_config.host = options.host;
  client_config.port = options.port;
  client_config.io_timeout_s = options.timeout_s;
  net::Client client(client_config);

  if (options.ping) {
    client.ping();
    std::printf("pong from %s:%u\n", options.host.c_str(),
                static_cast<unsigned>(options.port));
    return 0;
  }

  // The client-side deployment: simulation source when no trace is given,
  // and (with --session) the deployment shipped to the daemon.
  TestbedConfig config;
  config.seed = options.seed;
  config.n_antennas = options.antennas;
  config.multipath_environment = options.multipath;
  const Testbed bed(config);

  if (options.session) {
    const net::SessionReady ready = client.setup_session(
        bed.prism().config().geometry, bed.prism().calibrations());
    std::printf("session     tenant %016llx (%u antennas)\n",
                static_cast<unsigned long long>(ready.digest),
                static_cast<unsigned>(ready.n_antennas));
  }

  RoundTrace round;
  std::optional<TagState> truth;
  if (!options.trace.empty()) {
    round = load_round(options.trace);
  } else {
    // Simulate one round over the daemon's deployment: shipped by the
    // session, or (sessionless) the shared seed convention.
    Rng rng(mix_seed(options.seed,
                     0x9E90 + static_cast<std::uint64_t>(options.trial)));
    const Vec2 p{0.3 + 1.4 * rng.uniform(), 0.3 + 1.4 * rng.uniform()};
    const TagState state =
        bed.tag_state(p, rng.uniform(0.0, kPi), options.material);
    truth = state;
    round = bed.collect(state,
                        1000 + static_cast<std::uint64_t>(options.trial));
  }

  const SensingResult r = client.sense(round, options.tag);
  if (!r.valid) {
    std::printf("rejected: %s (grade %s)\n", to_string(r.reject_reason),
                to_string(r.grade));
    return 1;
  }
  std::printf("grade       %s\n", to_string(r.grade));
  std::printf("position    (%.4f, %.4f, %.4f) m\n", r.position.x,
              r.position.y, r.position.z);
  std::printf("orientation %.2f deg\n", rad2deg(r.alpha));
  std::printf("kt          %.4f rad/GHz\n", r.kt * 1e9);
  std::printf("bt          %.4f rad\n", r.bt);
  if (truth) {
    std::printf("truth       (%.4f, %.4f)  ->  err %.2f cm\n",
                truth->position.x, truth->position.y,
                100.0 * distance(r.position, truth->position));
  }
  return 0;
}

struct ExportOptions {
  std::uint64_t seed = 42;
  std::size_t antennas = 4;
  bool multipath = false;
  std::string geometry_path;
  std::string calibration_path;
};

int run_export(const ExportOptions& options) {
  TestbedConfig config;
  config.seed = options.seed;
  config.n_antennas = options.antennas;
  config.multipath_environment = options.multipath;
  const Testbed bed(config);
  if (!options.geometry_path.empty()) {
    save_geometry(options.geometry_path, bed.prism().config().geometry);
    std::printf("wrote %s (%zu antennas)\n", options.geometry_path.c_str(),
                bed.prism().config().geometry.n_antennas());
  }
  if (!options.calibration_path.empty()) {
    save_calibrations(options.calibration_path, bed.prism().calibrations());
    std::printf("wrote %s (%zu tags)\n", options.calibration_path.c_str(),
                bed.prism().calibrations().n_tags());
  }
  return 0;
}

int run_materials() {
  const MaterialDB db = MaterialDB::standard();
  std::printf("%-10s %12s %8s %10s %8s %s\n", "name", "kt[rad/GHz]",
              "bt[rad]", "ripple", "atten", "conductive");
  for (const auto& name : db.names()) {
    const Material& m = db.get(name);
    std::printf("%-10s %12.2f %8.2f %10.3f %6.1fdB %s\n", m.name.c_str(),
                m.kt * 1e9, m.bt, m.ripple_amplitude, m.attenuation_db,
                m.conductive ? "yes" : "no");
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];

  try {
    if (command == "materials") {
      if (argc > 2) return usage();
      return run_materials();
    }

    if (command == "track") {
      TrackOptions options;
      for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> const char* {
          if (i + 1 >= argc) {
            std::fprintf(stderr, "missing value for %s\n", arg.c_str());
            throw UsageError();
          }
          return argv[++i];
        };
        if (arg == "--rounds") {
          options.rounds = std::stoi(next());
        } else if (arg == "--tags") {
          options.tags = std::stoull(next());
        } else if (arg == "--seed") {
          options.seed = std::stoull(next());
        } else if (arg == "--antennas") {
          options.antennas = std::stoull(next());
        } else if (arg == "--json") {
          options.json = true;
        } else if (arg == "--record") {
          options.record_path = next();
        } else if (arg == "--replay") {
          options.replay_path = next();
        } else {
          std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
          return usage();
        }
      }
      return run_track(options);
    }

    if (command == "replay" || command == "inspect") {
      if (argc < 3 || argv[2][0] == '-') return usage();
      std::uint64_t seed = 42;
      for (int i = 3; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> const char* {
          if (i + 1 >= argc) {
            std::fprintf(stderr, "missing value for %s\n", arg.c_str());
            throw UsageError();
          }
          return argv[++i];
        };
        if (arg == "--seed") {
          seed = std::stoull(next());
        } else {
          std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
          return usage();
        }
      }
      return command == "replay" ? run_replay(argv[2], seed)
                                 : run_inspect(argv[2]);
    }

    if (command == "stream") {
      StreamOptions options;
      for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> const char* {
          if (i + 1 >= argc) {
            std::fprintf(stderr, "missing value for %s\n", arg.c_str());
            throw UsageError();
          }
          return argv[++i];
        };
        if (arg == "--rounds") {
          options.rounds = std::stoi(next());
        } else if (arg == "--fault-intensity") {
          options.intensity = std::stod(next());
        } else if (arg == "--dead") {
          options.dead_port = std::stoull(next());
        } else if (arg == "--antennas") {
          options.antennas = std::stoull(next());
        } else if (arg == "--seed") {
          options.seed = std::stoull(next());
        } else if (arg == "--warm") {
          options.warm = true;
        } else if (arg == "--drift") {
          options.drift = true;
        } else if (arg == "--track") {
          options.track = true;
        } else if (arg == "--host") {
          options.host = next();
        } else if (arg == "--port") {
          options.port = static_cast<std::uint16_t>(std::stoul(next()));
        } else if (arg == "--timeout") {
          options.timeout_s = std::stod(next());
        } else {
          std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
          return usage();
        }
      }
      return run_stream(options);
    }

    if (command == "batch") {
      BatchOptions options;
      for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> const char* {
          if (i + 1 >= argc) {
            std::fprintf(stderr, "missing value for %s\n", arg.c_str());
            throw UsageError();
          }
          return argv[++i];
        };
        if (arg == "--rounds") {
          options.rounds = std::stoi(next());
        } else if (arg == "--threads") {
          options.threads = std::stoull(next());
        } else if (arg == "--material") {
          options.material = next();
        } else if (arg == "--multipath") {
          options.multipath = true;
        } else if (arg == "--seed") {
          options.seed = std::stoull(next());
        } else if (arg == "--verify") {
          options.verify = true;
        } else {
          std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
          return usage();
        }
      }
      if (options.material != "all" &&
          !MaterialDB::standard().contains(options.material)) {
        std::fprintf(stderr, "unknown material: %s (try 'rfprism materials')\n",
                     options.material.c_str());
        return 2;
      }
      return run_batch(options);
    }

    if (command == "simulate") {
      SimulateOptions options;
      for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> const char* {
          if (i + 1 >= argc) {
            std::fprintf(stderr, "missing value for %s\n", arg.c_str());
            throw UsageError();
          }
          return argv[++i];
        };
        if (arg == "--trials") {
          options.trials = std::stoi(next());
        } else if (arg == "--material") {
          options.material = next();
        } else if (arg == "--alpha") {
          options.alpha_rad = deg2rad(std::stod(next()));
        } else if (arg == "--multipath") {
          options.multipath = true;
        } else if (arg == "--seed") {
          options.seed = std::stoull(next());
        } else if (arg == "--csv") {
          options.csv = true;
        } else if (arg == "--dump-trace") {
          options.dump_trace = next();
        } else {
          std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
          return usage();
        }
      }
      if (options.material != "all" &&
          !MaterialDB::standard().contains(options.material)) {
        std::fprintf(stderr, "unknown material: %s (try 'rfprism materials')\n",
                     options.material.c_str());
        return 2;
      }
      return run_simulate(options);
    }

    if (command == "serve") {
      tools::DaemonOptions options;
      for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> const char* {
          if (i + 1 >= argc) {
            std::fprintf(stderr, "missing value for %s\n", arg.c_str());
            throw UsageError();
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
      return tools::run_daemon("rfprism serve", options);
    }

    if (command == "request") {
      RequestOptions options;
      for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> const char* {
          if (i + 1 >= argc) {
            std::fprintf(stderr, "missing value for %s\n", arg.c_str());
            throw UsageError();
          }
          return argv[++i];
        };
        if (arg == "--host") {
          options.host = next();
        } else if (arg == "--port") {
          options.port = static_cast<std::uint16_t>(std::stoul(next()));
        } else if (arg == "--trace") {
          options.trace = next();
        } else if (arg == "--trial") {
          options.trial = std::stoi(next());
        } else if (arg == "--seed") {
          options.seed = std::stoull(next());
        } else if (arg == "--antennas") {
          options.antennas = std::stoull(next());
        } else if (arg == "--multipath") {
          options.multipath = true;
        } else if (arg == "--material") {
          options.material = next();
        } else if (arg == "--tag") {
          options.tag = next();
        } else if (arg == "--timeout") {
          options.timeout_s = std::stod(next());
        } else if (arg == "--ping") {
          options.ping = true;
        } else if (arg == "--session") {
          options.session = true;
        } else {
          std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
          return usage();
        }
      }
      if (options.trace.empty() &&
          !MaterialDB::standard().contains(options.material)) {
        std::fprintf(stderr, "unknown material: %s (try 'rfprism materials')\n",
                     options.material.c_str());
        return 2;
      }
      return run_request(options);
    }

    if (command == "export") {
      ExportOptions options;
      for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> const char* {
          if (i + 1 >= argc) {
            std::fprintf(stderr, "missing value for %s\n", arg.c_str());
            throw UsageError();
          }
          return argv[++i];
        };
        if (arg == "--seed") {
          options.seed = std::stoull(next());
        } else if (arg == "--antennas") {
          options.antennas = std::stoull(next());
        } else if (arg == "--multipath") {
          options.multipath = true;
        } else if (arg == "--geometry") {
          options.geometry_path = next();
        } else if (arg == "--calibration") {
          options.calibration_path = next();
        } else {
          std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
          return usage();
        }
      }
      if (options.geometry_path.empty() && options.calibration_path.empty()) {
        std::fprintf(stderr,
                     "export: give --geometry FILE and/or --calibration "
                     "FILE\n");
        return usage();
      }
      return run_export(options);
    }
  } catch (const UsageError&) {
    return usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return usage();
}
