/// Stage-A solver cost: grid x antennas x mode sweep.
///
/// Measures per-solve latency (p50/p99, microseconds) of solve_position
/// on synthetic slope lines, cold (full-grid scan) and warm (hint-windowed
/// scan). A closing JSON block (BENCH_solver.json in CI) makes the sweep
/// machine-readable for trending.

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "rfp/core/disentangle.hpp"
#include "rfp/core/grid_cache.hpp"
#include "rfp/rfsim/scene.hpp"
#include "support/bench_util.hpp"

namespace {

using namespace rfp;
using namespace rfp::bench;

using Clock = std::chrono::steady_clock;

DeploymentGeometry scene_geometry(std::size_t n_antennas) {
  SceneConfig config;
  config.n_antennas = n_antennas;
  config.antenna_spacing = n_antennas > 4 ? 0.3 : 0.5;
  const Scene scene = make_standard_scene(config, /*seed=*/1234);
  DeploymentGeometry g;
  for (const auto& a : scene.antennas) {
    g.antenna_positions.push_back(a.position);
    g.antenna_frames.push_back(a.frame);
  }
  g.working_region = scene.working_region;
  g.tag_plane_z = scene.tag_plane_z;
  return g;
}

/// Slope lines from the physical model plus a whiff of gaussian slope
/// noise, so LM does a realistic (non-zero) amount of refinement work.
std::vector<AntennaLine> noisy_lines(const DeploymentGeometry& geometry,
                                     Vec3 position, Rng& rng) {
  std::vector<AntennaLine> lines;
  for (std::size_t i = 0; i < geometry.n_antennas(); ++i) {
    AntennaLine line;
    line.antenna = i;
    const double d = distance(geometry.antenna_positions[i], position);
    line.fit.slope = kSlopePerMeter * d + 2e-9 + rng.gaussian(0.0, 1e-10);
    line.fit.intercept = 0.0;
    line.fit.n = kNumChannels;
    line.n_channels = kNumChannels;
    lines.push_back(line);
  }
  return lines;
}

struct Workload {
  std::vector<Vec3> targets;
  std::vector<std::vector<AntennaLine>> lines;  ///< per target
};

struct Cell {
  std::size_t grid = 0;
  std::size_t antennas = 0;
  std::string mode;
  double p50_us = 0.0;
  double p99_us = 0.0;
  double speedup = 0.0;  ///< p50 vs cold
};

/// Time cold and warm solves over the same workload, interleaved rep by
/// rep, so machine-load drift on a shared runner hits both equally.
/// Returns per-mode samples in `cold_us` / `warm_us`.
double run_modes(const DeploymentGeometry& geometry, const Workload& load,
                 std::size_t grid, std::size_t reps,
                 std::vector<double>& cold_us, std::vector<double>& warm_us) {
  DisentangleConfig config;
  config.grid_nx = grid;
  config.grid_ny = grid;
  SolveWorkspace ws;
  GridGeometryCache cache;
  // Warm-up: build the distance table and size the workspace outside the
  // timed region (steady-state cost is what the sweep compares).
  (void)solve_position(geometry, load.lines[0], config, ws, nullptr, &cache);

  cold_us.clear();
  warm_us.clear();
  double checksum = 0.0;
  for (std::size_t rep = 0; rep < reps; ++rep) {
    for (bool warm : {false, true}) {
      std::vector<double>& us = warm ? warm_us : cold_us;
      for (std::size_t t = 0; t < load.targets.size(); ++t) {
        // Warm mode: the hint a tracker would supply — near the truth, a
        // few cm off.
        const Vec3 hint{load.targets[t].x + 0.03, load.targets[t].y - 0.02,
                        load.targets[t].z};
        const auto t0 = Clock::now();
        const PositionSolve solve =
            solve_position(geometry, load.lines[t], config, ws, nullptr,
                           &cache, warm ? &hint : nullptr);
        us.push_back(
            1e6 * std::chrono::duration<double>(Clock::now() - t0).count());
        checksum += solve.position.x;
      }
    }
  }
  return checksum;  // keep the solves observable
}

void print_cell(const Cell& cell) {
  std::printf("  %-6zu %-9zu %-10s %-10.1f %-10.1f %.2fx\n", cell.grid,
              cell.antennas, cell.mode.c_str(), cell.p50_us, cell.p99_us,
              cell.speedup);
}

}  // namespace

int main(int argc, char** argv) {
  // --quick: fewer repetitions (CI smoke).
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--quick") quick = true;
  }

  print_header("Solver acceleration",
               "solve_position per-solve latency vs grid, antennas, mode");

  const std::vector<std::size_t> grids = {41, 81};
  const std::vector<std::size_t> antenna_counts = {4, 8};
  const std::size_t n_targets = quick ? 8 : 24;
  const std::size_t reps = quick ? 4 : 16;

  std::vector<Cell> cells;
  std::printf("  %-6s %-9s %-10s %-10s %-10s %s\n", "grid", "antennas",
              "mode", "p50[us]", "p99[us]", "speedup");
  for (std::size_t antennas : antenna_counts) {
    const DeploymentGeometry geometry = scene_geometry(antennas);
    Rng rng(mix_seed(antennas, 0x501E));
    Workload load;
    for (std::size_t t = 0; t < n_targets; ++t) {
      const Vec3 p{0.3 + 1.4 * rng.uniform(), 0.3 + 1.4 * rng.uniform(), 0.0};
      load.targets.push_back(p);
      load.lines.push_back(noisy_lines(geometry, p, rng));
    }
    for (std::size_t grid : grids) {
      std::vector<double> cold_us, warm_us;
      run_modes(geometry, load, grid, reps, cold_us, warm_us);
      const double cold_p50 = percentile(cold_us, 50.0);
      for (bool warm : {false, true}) {
        const std::vector<double>& us = warm ? warm_us : cold_us;
        Cell cell;
        cell.grid = grid;
        cell.antennas = antennas;
        cell.mode = warm ? "warm" : "cold";
        cell.p50_us = percentile(us, 50.0);
        cell.p99_us = percentile(us, 99.0);
        cell.speedup = cell.p50_us > 0.0 ? cold_p50 / cell.p50_us : 0.0;
        cells.push_back(cell);
        print_cell(cell);
      }
    }
  }

  std::printf("\n  JSON:\n[");
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const Cell& cell = cells[i];
    std::printf(
        "%s\n  {\"grid\": %zu, \"antennas\": %zu, \"mode\": \"%s\", "
        "\"p50_us\": %.2f, \"p99_us\": %.2f, \"speedup\": %.2f}",
        i == 0 ? "" : ",", cell.grid, cell.antennas, cell.mode.c_str(),
        cell.p50_us, cell.p99_us, cell.speedup);
  }
  std::printf("\n]\n");
  return 0;
}
