#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <numbers>

#include "alloc_count.hpp"
#include "rfp/common/rng.hpp"
#include "rfp/dsp/stats.hpp"
#include "rfp/geom/frame.hpp"

namespace perfbench {

using namespace rfp;

double median_of(std::vector<double> values) {
  return values.empty() ? kUnavailable : median(values);
}

double percentile_of(std::vector<double> values, double p) {
  return values.empty() ? kUnavailable : percentile(values, p);
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double peak_rss_mb() {
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return kUnavailable;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

void report_mismatch(const std::string& what) {
  static std::atomic<int> printed{0};
  if (printed.fetch_add(1) < 5) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
  }
}

Site make_site(const TestbedConfig& config) {
  Site site;
  site.bed = std::make_unique<Testbed>(config);
  const Testbed& bed = *site.bed;
  const TestbedConfig& c = bed.config();
  // A bare reference tag for reader-port equalization, then the main tag
  // at the same pose for its theta_device0 calibration (paper §IV-C, §V-B).
  Rng rng(mix_seed(c.seed, 0xCA1B));
  const TagHardware reference_tag =
      make_tag_hardware("reference-tag", mix_seed(c.seed, 0x5EF7A6));
  const TagState pose{bed.reference_pose().position,
                      bed.reference_pose().polarization, "none"};
  site.reader_cal_round =
      collect_round(bed.scene(), c.reader, c.channel, reference_tag, pose,
                    mix_seed(c.seed, 0xCA1B, 1), rng);
  site.tag_cal_round = collect_round(bed.scene(), c.reader, c.channel,
                                     bed.tag(), pose,
                                     mix_seed(c.seed, 0xCA1B, 2), rng);
  return site;
}

RfPrism calibrated_prism(const Site& site) {
  const Testbed& bed = *site.bed;
  RfPrism prism(bed.prism().config());
  prism.calibrate_reader(site.reader_cal_round, bed.reference_pose());
  prism.calibrate_tag(bed.tag_id(), site.tag_cal_round, bed.reference_pose());
  return prism;
}

RfPrism grafted_prism(const RfPrism& server_prism, const Site& site) {
  RfPrismConfig config = server_prism.config();
  config.geometry = site.bed->prism().config().geometry;
  RfPrism prism(std::move(config));
  prism.import_calibrations(calibrated_prism(site).calibrations());
  return prism;
}

Sample static_sample(const Testbed& bed, Rng& rng, std::size_t index,
                     std::uint64_t trial) {
  static const std::vector<double> angles = paper_rotation_angles();
  static const std::vector<std::string> materials = paper_materials();
  // Positions are stratified over an 8 x 8 grid of cells (cell = index
  // mod 64, uniform inside the cell): every seed covers the region alike,
  // so the accuracy medians move with the pipeline, not with where one
  // seed happened to put its tags.
  constexpr std::size_t kCells = 8;
  const Rect& region = bed.scene().working_region;
  const std::size_t cell = index % (kCells * kCells);
  const auto coord = [&](double lo, double size, std::size_t i) {
    const double u = (static_cast<double>(i) + rng.uniform()) / kCells;
    return lo + size * (0.15 + 0.7 * u);
  };
  Sample sample;
  sample.truth.x = coord(region.lo.x, region.width(), cell % kCells);
  sample.truth.y = coord(region.lo.y, region.height(), cell / kCells);
  sample.truth.alpha = angles[index % angles.size()];
  sample.truth.material = materials[(index / angles.size()) % materials.size()];
  sample.round = bed.collect(
      bed.tag_state({sample.truth.x, sample.truth.y}, sample.truth.alpha,
                    sample.truth.material),
      trial);
  return sample;
}

MaterialIdentifier train_identifier(const Site& site,
                                    const std::string& tag_id) {
  // The paper's protocol (Fig. 10): train at 0 degrees, test anywhere.
  // Seed-independent, so material_acc moves only with the pipeline and
  // the workload's own test rounds.
  constexpr std::size_t kPerMaterial = 30;
  const Testbed& bed = *site.bed;
  const RfPrism prism = calibrated_prism(site);
  MaterialIdentifier identifier(ClassifierKind::kDecisionTree);
  Rng rng(0x7EA1);
  std::uint64_t trial = 0x7EA10000;
  const Rect& region = bed.scene().working_region;
  for (const std::string& material : paper_materials()) {
    std::size_t got = 0;
    for (int attempt = 0; attempt < 200 && got < kPerMaterial; ++attempt) {
      const Vec2 p{region.lo.x + region.width() * rng.uniform(0.15, 0.85),
                   region.lo.y + region.height() * rng.uniform(0.15, 0.85)};
      const SensingResult r = prism.sense(
          bed.collect(bed.tag_state(p, 0.0, material), trial++), tag_id);
      if (!r.valid) continue;
      identifier.add_sample(r, material);
      ++got;
    }
  }
  identifier.train();
  return identifier;
}

void AccuracyTally::add(const SensingResult& result, const Truth& truth,
                        const MaterialIdentifier& identifier) {
  if (!truth.expect_valid) return;
  ++expected_;
  if (!result.valid) return;
  ++valid_;
  loc_err_cm_.push_back(100.0 * std::hypot(result.position.x - truth.x,
                                           result.position.y - truth.y));
  orient_err_deg_.push_back(180.0 / std::numbers::pi *
                            planar_angle_error(result.alpha, truth.alpha));
  if (truth.labelled) {
    ++labelled_;
    material_ok_ += identifier.predict(result) == truth.material ? 1 : 0;
  }
}

void AccuracyTally::report(Report& report) const {
  const std::string n = "n=" + std::to_string(valid_);
  report.add("valid_frac",
             expected_ ? static_cast<double>(valid_) / expected_ : kUnavailable,
             "fraction",
             std::to_string(valid_) + "/" + std::to_string(expected_));
  report.add("loc_err_p50_cm", median_of(loc_err_cm_), "cm", n);
  report.add("orient_err_p50_deg", median_of(orient_err_deg_), "deg", n);
  report.add("material_acc",
             labelled_ ? static_cast<double>(material_ok_) / labelled_
                       : kUnavailable,
             "fraction",
             std::to_string(material_ok_) + "/" + std::to_string(labelled_));
}

namespace {

double slice_throughput(const Segment& segment) {
  // About one second of work per slice: the rate of each slice is its
  // work over the time it took.
  const auto slices = static_cast<std::size_t>(segment.elapsed_s);
  if (slices < 2 || segment.completed == 0) {
    return segment.elapsed_s > 0.0 ? segment.completed / segment.elapsed_s
                                   : kUnavailable;
  }
  auto events = segment.completions;
  std::sort(events.begin(), events.end());
  const double per_slice =
      static_cast<double>(segment.completed) / static_cast<double>(slices);
  std::vector<double> rates;
  double start = 0.0, next = per_slice, done = 0.0;
  for (const auto& [t, n] : events) {
    done += static_cast<double>(n);
    if (done < next || t <= start) continue;
    rates.push_back((done - (next - per_slice)) / (t - start));
    start = t;
    next = done + per_slice;
  }
  return median_of(rates);
}

double windowed_p99(const std::vector<double>& samples) {
  // A percentile needs >= 10 samples beyond it. p99 is taken in windows
  // of >= 1,000 consecutive samples and the median over windows is
  // reported, so one burst of host preemption moves it less. A slow run
  // with fewer than 1,000 samples reports the highest percentile that
  // still has 10 beyond it.
  constexpr std::size_t kWindow = 1000;
  const std::size_t n = samples.size();
  if (n < 20) return kUnavailable;
  if (n < kWindow) {
    return percentile_of(samples, 100.0 * (1.0 - 10.0 / static_cast<double>(n)));
  }
  const std::size_t windows = n / kWindow;
  std::vector<double> p99;
  for (std::size_t w = 0; w < windows; ++w) {
    const auto first = samples.begin() + static_cast<std::ptrdiff_t>(w * n / windows);
    const auto last = samples.begin() + static_cast<std::ptrdiff_t>((w + 1) * n / windows);
    p99.push_back(percentile_of(std::vector<double>(first, last), 99.0));
  }
  return median_of(p99);
}

}  // namespace

void report_segment(Report& report, const Segment& segment) {
  const std::size_t n = segment.latency_ms.size();
  report.add("throughput_rps", slice_throughput(segment), "1/s",
             "median of 1-s slices; " + std::to_string(segment.completed) +
                 " in " + std::to_string(segment.elapsed_s) + " s");
  report.add("latency_p50_ms", percentile_of(segment.latency_ms, 50.0), "ms",
             "n=" + std::to_string(n));
  report.add("latency_p99_ms", windowed_p99(segment.latency_ms), "ms",
             "n=" + std::to_string(n));
}

void report_layers(Report& report, const std::vector<Span>& spans,
                   const LayerValues& values) {
  const std::vector<std::int64_t> self = self_times_ns(spans);
  const auto p50_us = [&](const char* name) {
    return median_of(self_us_per_request(spans, self, name));
  };
  const auto allocs = [&](const char* name) {
    return kCountAllocs ? median_of(allocs_per_request(spans, name))
                        : kUnavailable;
  };
  const auto value = [&](const char* name) {
    const auto it = values.find(name);
    return it == values.end() ? kUnavailable : it->second;
  };

  // "Sense minus the layers above", per round: the actual RfPrism::sense
  // span and the layer spans of its replay share one request id.
  static const char* const kSenseLayers[] = {
      "preprocess", "fitting", "error_detector", "disentangle.position",
      "disentangle.orientation", "features"};
  std::map<std::uint64_t, double> sense_us, layers_us;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const double us = 1e-3 * static_cast<double>(self[i]);
    if (std::string_view(spans[i].name) == "pipeline.sense") {
      sense_us[spans[i].request] += us;
    }
    for (const char* layer : kSenseLayers) {
      if (std::string_view(spans[i].name) == layer) {
        layers_us[spans[i].request] += us;
      }
    }
  }
  std::vector<double> other_us;
  for (const auto& [request, us] : sense_us) {
    const auto it = layers_us.find(request);
    if (it != layers_us.end()) other_us.push_back(us - it->second);
  }

  report.add("preprocess.self_us_p50", p50_us("preprocess"), "us");
  report.add("preprocess.allocs_per_call", allocs("preprocess"), "count");
  report.add("fitting.self_us_p50", p50_us("fitting"), "us");
  report.add("fitting.allocs_per_call", allocs("fitting"), "count");
  report.add("error_detector.self_us_p50", p50_us("error_detector"), "us");
  report.add("disentangle.position_us_p50", p50_us("disentangle.position"),
             "us");
  report.add("disentangle.cells_scanned_per_solve",
             value("disentangle.cells_scanned_per_solve"), "count");
  report.add("disentangle.orientation_us_p50",
             p50_us("disentangle.orientation"), "us");
  report.add("features.self_us_p50", p50_us("features"), "us");
  report.add("pipeline.sense_us_p50", p50_us("pipeline.sense"), "us");
  report.add("pipeline.other_us_p50", median_of(other_us), "us");
  report.add("pipeline.allocs_per_sense", allocs("pipeline.sense"), "count");
  report.add("pipeline.grade_full_frac", value("pipeline.grade_full_frac"),
             "fraction");
  report.add("pipeline.grade_degraded_frac",
             value("pipeline.grade_degraded_frac"), "fraction");
  report.add("pipeline.grade_rejected_frac",
             value("pipeline.grade_rejected_frac"), "fraction");
  report.add("engine.parallel_efficiency", value("engine.parallel_efficiency"),
             "fraction");
  report.add("wire.encode_sense_request_us",
             p50_us("wire.encode_sense_request"), "us");
  report.add("wire.decode_sense_request_us",
             p50_us("wire.decode_sense_request"), "us");
  report.add("wire.encode_sense_response_us",
             p50_us("wire.encode_sense_response"), "us");
  report.add("wire.decode_stream_push_us_per_kread",
             value("wire.decode_stream_push_us_per_kread"), "us/kread");
  report.add("wire.request_bytes", value("wire.request_bytes"), "B");
  report.add("client.send_us_p50", p50_us("client.send"), "us");
  report.add("client.wait_ms_p50", value("client.wait_ms_p50"), "ms");
  report.add("server.window_overhead_ms_p50",
             value("server.window_overhead_ms_p50"), "ms");
  report.add("server.writev_calls_per_response",
             value("server.writev_calls_per_response"), "count");
  report.add("server.backpressure_pauses", value("server.backpressure_pauses"),
             "count");
  report.add("server.pool_misses", value("server.pool_misses"), "count");
  report.add("registry.setup_session_ms",
             1e-3 * p50_us("registry.setup_session"), "ms");
  report.add("streaming.push_us_per_kread",
             value("streaming.push_us_per_kread"), "us/kread");
  report.add("streaming.poll_ms_per_round",
             value("streaming.poll_ms_per_round"), "ms");
  report.add("streaming.reads_dropped", value("streaming.reads_dropped"),
             "count");
  report.add("loadgen.late_p99_ms", value("loadgen.late_p99_ms"), "ms");
  report.add("trace.overhead_frac", value("trace.overhead_frac"), "fraction");
}

}  // namespace perfbench
