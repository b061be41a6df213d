#pragma once

#include <memory>

#include "harness.hpp"

/// The three workloads. Each builds its inputs and expected outputs in
/// its constructor (untimed), then set-up, the measured loop and the
/// traced layer probes run against a system built by setup().

namespace perfbench {

class Workload {
 public:
  virtual ~Workload() = default;

  /// Timed set-up: builds a fresh system under test (replacing any earlier
  /// one) and runs its first cold sense. Returns the checks it made.
  virtual Segment setup(Tracer& tracer) = 0;

  /// Releases the system under test.
  virtual void teardown() = 0;

  /// Measures the workload's loop for `seconds`; records spans when the
  /// tracer is enabled.
  virtual Segment run(double seconds, Tracer& tracer) = 0;

  /// Traced run only: layer calls outside the loop, and values derived
  /// from the last traced run() (counters, paired differences).
  virtual void probe_layers(Tracer& tracer, LayerValues& values) = 0;

  /// valid_frac, loc_err_p50_cm, orient_err_p50_deg, material_acc.
  virtual void report_accuracy(Report& report) const = 0;
};

/// `total_seconds` bounds the time all run() calls will measure together
/// (the stream workload sizes its schedule from it).
std::unique_ptr<Workload> make_batch(const Options& options);
std::unique_ptr<Workload> make_serve(const Options& options);
std::unique_ptr<Workload> make_stream(const Options& options,
                                      double total_seconds);

}  // namespace perfbench
