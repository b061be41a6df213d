/// Drift self-calibration sweep: slow per-antenna calibration drift vs
/// closed-loop localization error, with and without the online
/// DriftEstimator in the loop.
///
/// A 4-antenna planar deployment ages through deployment time (one round
/// every 10 s) while per-antenna LO slope and cable intercept offsets
/// ramp (or random-walk). Three pipelines see the same rounds: the
/// drift-free baseline (no faults), the uncorrected pipeline (drifted
/// rounds, no estimator), and the corrected pipeline (drifted rounds,
/// DriftEstimator closing the loop). The steady-state medians quantify
/// how much pose error the correction buys back; the alarm column shows
/// when the re-survey threshold trips.
///
/// The closing JSON block is machine-readable for CI trending; the CI
/// gate asserts the corrected error stays near baseline while the
/// uncorrected error blows up.

#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "rfp/core/drift.hpp"
#include "rfp/rfsim/faults.hpp"
#include "support/bench_util.hpp"

namespace {

using namespace rfp;
using namespace rfp::bench;

constexpr std::size_t kRounds = 60;
constexpr std::size_t kTail = 20;  // steady-state window for the medians

struct Scenario {
  std::string name;
  double slope_rate = 0.0;       // [rad/Hz per s]
  double intercept_rate = 0.0;   // [rad per s]
  double slope_walk = 0.0;       // [rad/Hz per sqrt(round)]
  double intercept_walk = 0.0;   // [rad per sqrt(round)]
  // A walk's innovation is itself a walk step — smoothing hard only adds
  // lag — so walk scenarios run the estimator with a snappier EMA.
  double ema_alpha = 0.15;
  // Walk accumulation grows as sqrt(rounds) while the estimator's
  // tracking error stays flat, so the walk scenario ages longer before
  // the uncorrected/corrected gap is visible.
  std::size_t rounds = kRounds;
};

FaultProfile drift_profile(const Scenario& scenario) {
  FaultProfile profile;
  profile.drift_round_period_s = 10.0;
  profile.slope_drift_rate = scenario.slope_rate;
  profile.intercept_drift_rate = scenario.intercept_rate;
  profile.slope_drift_walk = scenario.slope_walk;
  profile.intercept_drift_walk = scenario.intercept_walk;
  return profile;
}

struct LoopResult {
  std::vector<double> err_cm;  // per-round, invalid counted as 100 cm
  DriftStats stats;
};

/// One closed-loop pass: the tag wanders the working region while the
/// deployment ages. A drift-enabled `prism` runs the corrected pipeline
/// (its own corrections -> solve), with the survey's reference
/// transponder re-read every round and observed against its known pose —
/// residuals at a known pose expose the full differential drift, where
/// solved-pose residuals only see what the position fit failed to absorb.
LoopResult run_loop(const Testbed& bed, const RfPrism& prism,
                    const FaultInjector* injector, std::uint64_t trial_base,
                    std::size_t rounds = kRounds) {
  LoopResult out;
  Rng rng(mix_seed(trial_base, 0xD21F7));
  const ReferencePose& ref = bed.reference_pose();
  const TagState ref_state{ref.position, ref.polarization, "none"};
  for (std::size_t k = 0; k < rounds; ++k) {
    const std::uint64_t trial = k;  // deployment time = trial * period
    const Vec2 p{0.3 + 1.4 * rng.uniform(), 0.3 + 1.4 * rng.uniform()};
    const TagState state = bed.tag_state(p, rng.uniform(0.0, kPi), "plastic");
    RoundTrace round = bed.collect(state, trial);
    if (injector != nullptr) round = injector->apply(round, trial);
    const SensingResult r = prism.sense(round, bed.tag_id());
    if (prism.drift_enabled()) {
      RoundTrace ref_round = bed.collect(ref_state, 100000 + trial);
      if (injector != nullptr) ref_round = injector->apply(ref_round, trial);
      prism.observe_drift(prism.sense(ref_round, bed.tag_id()), &ref);
    }
    out.err_cm.push_back(
        r.valid ? 100.0 * distance(r.position, state.position) : 100.0);
  }
  out.stats = prism.drift_stats();
  return out;
}

double tail_median(const std::vector<double>& err_cm) {
  return percentile(std::span<const double>(err_cm).last(kTail), 50.0);
}

}  // namespace

int main() {
  print_header("Drift self-calibration",
               "closed-loop error with and without online drift correction");

  TestbedConfig config;
  config.n_antennas = 4;
  Testbed bed(config);

  const std::vector<Scenario> scenarios = {
      {"linear-0.5x", 1e-11, 2e-4, 0.0, 0.0},
      {"linear-1x", 2e-11, 4e-4, 0.0, 0.0},
      {"linear-2x", 4e-11, 8e-4, 0.0, 0.0},
      {"random-walk", 0.0, 0.0, 8e-10, 0.018, 0.4, 2 * kRounds},
  };

  // The drift-free reference is scenario-independent: same trajectory,
  // no injector, no estimator.
  const double baseline_cm =
      tail_median(run_loop(bed, bed.prism(), nullptr, 0).err_cm);

  struct Row {
    Scenario scenario;
    double uncorrected_cm = 0.0;
    double corrected_cm = 0.0;
    DriftStats stats;
  };
  std::vector<Row> rows;

  std::printf("  baseline (no drift): %.2f cm median\n\n", baseline_cm);
  std::printf("  %-14s %-14s %-14s %-9s %s\n", "scenario", "uncorrected",
              "corrected", "alarms", "outliers");
  for (const Scenario& scenario : scenarios) {
    const FaultInjector injector(drift_profile(scenario));
    Row row;
    row.scenario = scenario;
    row.uncorrected_cm = tail_median(
        run_loop(bed, bed.prism(), &injector, 0, scenario.rounds).err_cm);
    RfPrismConfig corrected_config = bed.prism().config();
    corrected_config.disentangle.drift.enable = true;
    corrected_config.disentangle.drift.ema_alpha = scenario.ema_alpha;
    const RfPrism corrected =
        bed.make_pipeline_variant(std::move(corrected_config));
    const LoopResult loop =
        run_loop(bed, corrected, &injector, 0, scenario.rounds);
    row.corrected_cm = tail_median(loop.err_cm);
    row.stats = loop.stats;
    std::printf("  %-14s %9.2f cm  %9.2f cm  %-9llu %llu\n",
                scenario.name.c_str(), row.uncorrected_cm, row.corrected_cm,
                static_cast<unsigned long long>(row.stats.alarms_raised),
                static_cast<unsigned long long>(row.stats.outliers_rejected));
    rows.push_back(row);
  }

  std::printf("\n  JSON:\n[");
  std::printf("\n  {\"scenario\": \"baseline\", \"rounds\": %zu, "
              "\"median_loc_cm\": %.3f}",
              kRounds, baseline_cm);
  for (const Row& row : rows) {
    std::printf(
        ",\n  {\"scenario\": \"%s\", \"rounds\": %zu, "
        "\"slope_rate\": %.3e, \"intercept_rate\": %.3e, "
        "\"slope_walk\": %.3e, \"intercept_walk\": %.3e, "
        "\"uncorrected_median_cm\": %.3f, \"corrected_median_cm\": %.3f, "
        "\"rounds_observed\": %llu, \"updates_applied\": %llu, "
        "\"outliers_rejected\": %llu, \"alarms_raised\": %llu, "
        "\"ports_dropped\": %llu}",
        row.scenario.name.c_str(), row.scenario.rounds,
        row.scenario.slope_rate,
        row.scenario.intercept_rate, row.scenario.slope_walk,
        row.scenario.intercept_walk, row.uncorrected_cm, row.corrected_cm,
        static_cast<unsigned long long>(row.stats.rounds_observed),
        static_cast<unsigned long long>(row.stats.updates_applied),
        static_cast<unsigned long long>(row.stats.outliers_rejected),
        static_cast<unsigned long long>(row.stats.alarms_raised),
        static_cast<unsigned long long>(row.stats.ports_dropped));
  }
  std::printf("\n]\n");
  return 0;
}
