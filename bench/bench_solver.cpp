/// Stage-A solver cost: grid x antennas sweep.
///
/// Measures per-solve latency (p50/p99, microseconds) of solve_position
/// (a full-grid scan plus LM refinement) on synthetic slope lines. A
/// closing JSON block (BENCH_solver.json in CI) makes the sweep
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

/// Per-target slope lines of one deployment.
using Workload = std::vector<std::vector<AntennaLine>>;

struct Cell {
  std::size_t grid = 0;
  std::size_t antennas = 0;
  std::string mode;
  double p50_us = 0.0;
  double p99_us = 0.0;
};

/// Time `reps` passes of cold solves over the workload into `us`.
double run_cold(const DeploymentGeometry& geometry, const Workload& load,
                std::size_t grid, std::size_t reps, std::vector<double>& us) {
  DisentangleConfig config;
  config.grid_nx = grid;
  config.grid_ny = grid;
  SolveWorkspace ws;
  GridGeometryCache cache;
  // Warm-up: build the distance table and size the workspace outside the
  // timed region (steady-state cost is what the sweep measures).
  (void)solve_position(geometry, load[0], config, ws, nullptr, &cache);

  us.clear();
  double checksum = 0.0;
  for (std::size_t rep = 0; rep < reps; ++rep) {
    for (const std::vector<AntennaLine>& lines : load) {
      const auto t0 = Clock::now();
      const PositionSolve solve =
          solve_position(geometry, lines, config, ws, nullptr, &cache);
      us.push_back(
          1e6 * std::chrono::duration<double>(Clock::now() - t0).count());
      checksum += solve.position.x;
    }
  }
  return checksum;  // keep the solves observable
}

void print_cell(const Cell& cell) {
  std::printf("  %-6zu %-9zu %-10s %-10.1f %.1f\n", cell.grid, cell.antennas,
              cell.mode.c_str(), cell.p50_us, cell.p99_us);
}

}  // namespace

int main(int argc, char** argv) {
  // --quick: fewer repetitions (CI smoke).
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--quick") quick = true;
  }

  print_header("Solver acceleration",
               "solve_position per-solve latency vs grid, antennas");

  const std::vector<std::size_t> grids = {41, 81};
  const std::vector<std::size_t> antenna_counts = {4, 8};
  const std::size_t n_targets = quick ? 8 : 24;
  const std::size_t reps = quick ? 4 : 16;

  std::vector<Cell> cells;
  std::printf("  %-6s %-9s %-10s %-10s %s\n", "grid", "antennas", "mode",
              "p50[us]", "p99[us]");
  for (std::size_t antennas : antenna_counts) {
    const DeploymentGeometry geometry = scene_geometry(antennas);
    Rng rng(mix_seed(antennas, 0x501E));
    Workload load;
    for (std::size_t t = 0; t < n_targets; ++t) {
      const Vec3 p{0.3 + 1.4 * rng.uniform(), 0.3 + 1.4 * rng.uniform(), 0.0};
      load.push_back(noisy_lines(geometry, p, rng));
    }
    for (std::size_t grid : grids) {
      std::vector<double> us;
      run_cold(geometry, load, grid, reps, us);
      Cell cell;
      cell.grid = grid;
      cell.antennas = antennas;
      cell.mode = "cold";
      cell.p50_us = percentile(us, 50.0);
      cell.p99_us = percentile(us, 99.0);
      cells.push_back(cell);
      print_cell(cell);
    }
  }

  std::printf("\n  JSON:\n[");
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const Cell& cell = cells[i];
    std::printf(
        "%s\n  {\"grid\": %zu, \"antennas\": %zu, \"mode\": \"%s\", "
        "\"p50_us\": %.2f, \"p99_us\": %.2f}",
        i == 0 ? "" : ",", cell.grid, cell.antennas, cell.mode.c_str(),
        cell.p50_us, cell.p99_us);
  }
  std::printf("\n]\n");
  return 0;
}
