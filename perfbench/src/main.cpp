/// perfbench: the repository benchmark.
///
///   perfbench --workload batch|serve|stream --seed N --seconds S --trace 0|1
///
/// --trace 0 measures the workload's end-to-end metrics: set-up time (the
/// median of several fresh set-ups), throughput, latency, peak memory and
/// accuracy against simulator ground truth. --trace 1 is the per-layer
/// run: the named workload untraced and traced (their difference is the
/// tracing overhead), then the other two workloads traced, so every layer
/// metric is reported; spans go to --trace-dir.
///
/// Human-readable lines go first; the last line of stdout is one JSON
/// object {"correct", "attempted", "failed", "metrics"}. Every output is
/// checked: a mismatch, error frame, exception or timeout counts in
/// "failed" and makes "correct" false.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "workloads.hpp"

namespace {

using namespace perfbench;

constexpr int kSetups = 11;

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload batch|serve|stream --seed N "
               "--seconds S --trace 0|1 [--trace-dir DIR] [--corrupt 0|1]\n");
  return 2;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const Options& options,
                                        double total_seconds) {
  if (name == "batch") return make_batch(options);
  if (name == "serve") return make_serve(options);
  return make_stream(options, total_seconds);
}

void add_checks(Report& report, const Segment& seg) {
  report.attempted += seg.attempted;
  report.failed += seg.failed;
}

void print_report(const Report& report, const std::string& workload,
                  bool trace) {
  std::printf("perfbench %s (%s)\n", workload.c_str(),
              trace ? "traced, per-layer" : "end to end");
  for (const Metric& m : report.metrics) {
    if (std::isnan(m.value)) {
      std::printf("  %-40s unavailable %s\n", m.name.c_str(), m.unit.c_str());
    } else {
      std::printf("  %-40s %.6g %s%s%s\n", m.name.c_str(), m.value,
                  m.unit.c_str(), m.note.empty() ? "" : "  ", m.note.c_str());
    }
  }
  std::printf("  %-40s %.6g fraction  %llu/%llu\n", "error_rate",
              report.attempted
                  ? static_cast<double>(report.failed) / report.attempted
                  : 0.0,
              static_cast<unsigned long long>(report.failed),
              static_cast<unsigned long long>(report.attempted));

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              report.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed));
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const Metric& m = report.metrics[i];
    std::printf("%s\"%s\": {\"value\": ", i == 0 ? "" : ", ", m.name.c_str());
    if (std::isnan(m.value)) {
      std::printf("null");
    } else {
      std::printf("%.17g", m.value);
    }
    std::printf(", \"unit\": \"%s\"}", m.unit.c_str());
  }
  std::printf("}}\n");
}

Report run_end_to_end(const Options& options) {
  Report report;
  Tracer off;
  const auto workload = make_workload(options.workload, options,
                                      options.seconds);
  std::vector<double> setup_s;
  for (int i = 0; i < kSetups; ++i) {
    const auto t0 = Clock::now();
    const Segment checks = workload->setup(off);
    setup_s.push_back(seconds_since(t0));
    add_checks(report, checks);
  }
  const Segment seg = workload->run(options.seconds, off);
  workload->teardown();
  add_checks(report, seg);

  report.add("setup_s", median_of(setup_s), "s",
             "median of " + std::to_string(kSetups));
  report_segment(report, seg);
  report.add("peak_rss_mb", peak_rss_mb(), "MB");
  workload->report_accuracy(report);
  return report;
}

Report run_traced(const Options& options) {
  Report report;
  Tracer off;
  Tracer tracer;
  tracer.enabled = true;
  tracer.spans.reserve(1 << 16);
  LayerValues values;
  std::vector<std::string> order{options.workload};
  for (const char* name : {"batch", "serve", "stream"}) {
    if (name != options.workload) order.push_back(name);
  }
  const double share = options.seconds / 4.0;
  for (const std::string& name : order) {
    const bool primary = name == options.workload;
    const auto workload =
        make_workload(name, options, primary ? 2.0 * share : share);
    add_checks(report, workload->setup(tracer));
    if (primary) {
      const Segment untraced = workload->run(share, off);
      const Segment traced = workload->run(share, tracer);
      add_checks(report, untraced);
      add_checks(report, traced);
      values["trace.overhead_frac"] =
          median_of(traced.latency_ms) / median_of(untraced.latency_ms) - 1.0;
    } else {
      add_checks(report, workload->run(share, tracer));
    }
    workload->probe_layers(tracer, values);
    workload->teardown();
  }
  report_layers(report, tracer.spans, values);

  std::error_code ec;
  std::filesystem::create_directories(options.trace_dir, ec);
  const std::string path = options.trace_dir + "/" + options.workload +
                           "-seed" + std::to_string(options.seed) + ".csv";
  if (ec || !write_spans(path, tracer.spans)) {
    std::fprintf(stderr, "perfbench: cannot write spans to %s\n",
                 path.c_str());
  } else {
    std::fprintf(stderr, "perfbench: %zu spans written to %s\n",
                 tracer.spans.size(), path.c_str());
  }
  return report;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage();
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = *end == '\0';
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      have_seconds = *end == '\0' && options.seconds > 0.0;
    } else if (arg == "--trace") {
      have_trace = value == "0" || value == "1";
      options.trace = value == "1";
    } else if (arg == "--trace-dir") {
      options.trace_dir = value;
    } else if (arg == "--corrupt") {
      options.corrupt = value == "1";
    } else {
      return usage();
    }
  }
  if (options.workload != "batch" && options.workload != "serve" &&
      options.workload != "stream") {
    return usage();
  }
  if (!have_seed || !have_seconds || !have_trace) return usage();

  try {
    const Report report =
        options.trace ? run_traced(options) : run_end_to_end(options);
    print_report(report, options.workload, options.trace);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
