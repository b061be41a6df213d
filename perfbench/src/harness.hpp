#pragma once

#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "rfp/core/identifier.hpp"
#include "rfp/core/pipeline.hpp"
#include "rfp/exp/testbed.hpp"
#include "trace.hpp"

/// Shared pieces of the three workloads: command-line options, the result
/// report, the simulated sites that generate inputs and ground truth, and
/// the accuracy tally. Input generation (rfsim/exp) is never timed.

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory the traced run writes its spans to.
  std::string trace_dir = ".bench_build/traces";
  /// Self-test hook: corrupt one expected output checked at set-up and
  /// one checked in the measured loop, so the run must count failures in
  /// both. Off in every real run.
  bool corrupt = false;
};

inline constexpr double kUnavailable = NAN;

struct Metric {
  std::string name;
  double value = 0.0;  ///< NaN prints as null (unavailable)
  std::string unit;
  std::string note;  ///< sample count and similar, printed for humans
};

struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;

  void add(std::string name, double value, std::string unit,
           std::string note = {}) {
    metrics.push_back({std::move(name), value, std::move(unit),
                       std::move(note)});
  }
};

/// One measured stretch of a workload's closed or open loop.
struct Segment {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Work completed and verified (rounds, responses, emissions).
  std::uint64_t completed = 0;
  double elapsed_s = 0.0;
  /// One sample per attempted operation; a failure leaves no sample
  /// (it counts as missing any latency limit).
  std::vector<double> latency_ms;
  /// (seconds since the segment started, work completed then): the
  /// throughput is the median over the segment's whole seconds, so a
  /// burst of interference on a shared host moves it less than a mean.
  std::vector<std::pair<double, std::uint64_t>> completions;
};

double median_of(std::vector<double> values);
double percentile_of(std::vector<double> values, double p);
double seconds_since(Clock::time_point t0);
double peak_rss_mb();

/// Mismatches found by one check site, echoed to stderr (first few only)
/// so a failing run says what went wrong.
void report_mismatch(const std::string& what);

/// Ground truth of one generated round.
struct Truth {
  bool expect_valid = true;  ///< static tag with enough healthy ports
  bool labelled = true;      ///< carries a material label
  double x = 0.0, y = 0.0;   ///< tag position [m]
  double alpha = 0.0;        ///< polarization angle [rad]
  std::string material;
};

struct Sample {
  rfp::RoundTrace round;
  Truth truth;
};

/// One simulated deployment. The testbed generates rounds and ground
/// truth; the calibration rounds (a bare reference tag, then the main tag,
/// both at the reference pose) are what calibrated_prism() calibrates the
/// system under test from.
struct Site {
  std::unique_ptr<rfp::Testbed> bed;
  rfp::RoundTrace reader_cal_round;
  rfp::RoundTrace tag_cal_round;
};

Site make_site(const rfp::TestbedConfig& config);

/// The timed part of set-up for one deployment: construct the pipeline
/// and run reader and tag calibration.
rfp::RfPrism calibrated_prism(const Site& site);

/// The server-side view of a deployment shipped over setup_session: the
/// server's solver settings grafted onto the site's geometry and
/// calibrations (what the deployment registry builds).
rfp::RfPrism grafted_prism(const rfp::RfPrism& server_prism, const Site& site);

/// A static tag at a random position (stratified by `index`), a paper
/// angle and a paper material.
Sample static_sample(const rfp::Testbed& bed, rfp::Rng& rng,
                     std::size_t index, std::uint64_t trial);

/// Decision-tree material identifier trained on a fixed corpus (the same
/// for every seed) of 0-degree reads sensed with `tag_id`'s calibration.
rfp::MaterialIdentifier train_identifier(const Site& site,
                                         const std::string& tag_id);

/// Accuracy of results against ground truth.
class AccuracyTally {
 public:
  void add(const rfp::SensingResult& result, const Truth& truth,
           const rfp::MaterialIdentifier& identifier);
  void report(Report& report) const;

 private:
  std::size_t expected_ = 0;
  std::size_t valid_ = 0;
  std::size_t labelled_ = 0;
  std::size_t material_ok_ = 0;
  std::vector<double> loc_err_cm_;
  std::vector<double> orient_err_deg_;
};

/// Adds the latency/throughput metrics of a segment.
void report_segment(Report& report, const Segment& segment);

/// Derived per-layer values a workload measured without spans (counters,
/// paired differences), keyed by metric name.
using LayerValues = std::map<std::string, double>;

/// Per-layer metrics from the merged spans of a traced run plus the
/// workloads' own values, in BENCHMARK.json order.
void report_layers(Report& report, const std::vector<Span>& spans,
                   const LayerValues& values);

}  // namespace perfbench
