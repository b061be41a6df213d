#include "rfp/core/fitting.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "rfp/common/angles.hpp"
#include "rfp/common/constants.hpp"
#include "rfp/common/error.hpp"
#include "rfp/common/rng.hpp"
#include "rfp/dsp/stats.hpp"

namespace rfp {

namespace {

/// Residual of `theta` against prediction `pred`, reduced modulo pi into
/// [-pi/2, pi/2]. Both the 2*pi folding and the reader's pi ambiguity
/// vanish under this reduction.
double modpi_residual(double theta, double pred) {
  return remainder_pi(theta - pred);
}

/// Sequential unwrap with period pi (used by the plain, non-robust path).
std::vector<double> unwrap_mod_pi(std::span<const double> wrapped) {
  std::vector<double> out(wrapped.begin(), wrapped.end());
  for (std::size_t i = 1; i < out.size(); ++i) {
    out[i] = out[i - 1] + remainder_pi(wrapped[i] - out[i - 1]);
  }
  return out;
}

/// Majority parity vote: are the raw wrapped phases ~0 or ~pi away from
/// the candidate curve (mod 2*pi)? Returns pi to add when the majority
/// sits on the far side.
double parity_correction(std::span<const double> wrapped,
                         std::span<const double> predicted,
                         const std::vector<bool>* mask) {
  std::size_t votes_far = 0;
  std::size_t total = 0;
  for (std::size_t i = 0; i < wrapped.size(); ++i) {
    if (mask != nullptr && !(*mask)[i]) continue;
    const double delta = wrap_to_pi(wrapped[i] - predicted[i]);
    if (std::abs(delta) > kPi / 2.0) ++votes_far;
    ++total;
  }
  return (total > 0 && 2 * votes_far > total) ? kPi : 0.0;
}

AntennaLine plain_fit(const AntennaTrace& trace) {
  const auto& f = trace.frequency_hz;
  AntennaLine line;
  line.antenna = trace.antenna;
  line.n_channels = f.size();
  line.frequency_hz = f;

  // Naive path: mod-pi sequential unwrap, global parity, single OLS over
  // every channel. No channel selection: multipath outliers stay in.
  std::vector<double> y = unwrap_mod_pi(trace.wrapped_phase);
  const double parity = parity_correction(trace.wrapped_phase, y, nullptr);
  for (double& v : y) v += parity;

  line.fit = fit_line(f, y);
  line.channel_inlier.assign(f.size(), true);
  line.residual = residuals(line.fit, f, y);
  return line;
}

}  // namespace

AntennaLine fit_antenna_line(const AntennaTrace& trace,
                             const FittingConfig& config) {
  const auto& f = trace.frequency_hz;
  const auto& wrapped = trace.wrapped_phase;
  require(f.size() == wrapped.size(), "fit_antenna_line: trace size mismatch");
  require(f.size() >= 3, "fit_antenna_line: need at least 3 channels");
  require(config.slope_max > config.slope_min,
          "fit_antenna_line: bad slope bounds");

  if (!config.multipath_suppression) return plain_fit(trace);

  const std::size_t n = f.size();
  const double f_span = f.back() - f.front();
  require(f_span > 0.0, "fit_antenna_line: degenerate frequency span");

  AntennaLine line;
  line.antenna = trace.antenna;
  line.n_channels = n;
  line.frequency_hz = f;

  // ---- RANSAC over channel pairs in the mod-pi domain ------------------
  Rng rng(mix_seed(config.seed, trace.antenna, n));
  double best_k = 0.0;
  double best_b = 0.0;
  std::size_t best_count = 0;
  double best_rss = std::numeric_limits<double>::infinity();

  for (std::size_t it = 0; it < config.ransac_iterations; ++it) {
    const std::size_t i = rng.uniform_index(n);
    const std::size_t j = rng.uniform_index(n);
    const double df = f[j] - f[i];
    // Long baselines give precise slope hypotheses; skip near pairs.
    if (std::abs(df) < 0.3 * f_span) continue;

    const double dtheta = remainder_pi(wrapped[j] - wrapped[i]);
    const double base = dtheta / df;
    const double step = kPi / std::abs(df);
    // Enumerate the pi/delta_f ladder of feasible slopes.
    const double m_lo = std::ceil((config.slope_min - base) / step - 1e-9);
    const double m_hi = std::floor((config.slope_max - base) / step + 1e-9);
    for (double m = m_lo; m <= m_hi; m += 1.0) {
      const double k = base + m * step;
      const double b = wrapped[i] - k * f[i];
      std::size_t count = 0;
      double rss = 0.0;
      for (std::size_t c = 0; c < n; ++c) {
        const double r = modpi_residual(wrapped[c], k * f[c] + b);
        if (std::abs(r) <= config.ransac_inlier_threshold) {
          ++count;
          rss += r * r;
        } else if (count + (n - 1 - c) < best_count) {
          // Even if every channel left agrees, this candidate ends below
          // the best count and cannot replace it: stop scoring it.
          break;
        }
      }
      if (count > best_count || (count == best_count && rss < best_rss)) {
        best_count = count;
        best_rss = rss;
        best_k = k;
        best_b = b;
      }
    }
  }

  if (best_count < 3) {
    // No linear consensus at all (severe mobility or jamming): report an
    // unusable line rather than inventing one.
    line.channel_inlier.assign(n, false);
    line.residual.assign(n, 0.0);
    return line;
  }

  // ---- Refinement: congruence-snap (period pi) + OLS on inliers --------
  std::vector<bool> inlier(n, false);
  std::vector<double> snapped(n, 0.0);
  std::vector<double> abs_res(n);
  std::vector<double> fx, fy;
  fx.reserve(n);
  fy.reserve(n);
  double k = best_k;
  double b = best_b;
  LineFit fit;

  for (int round = 0; round < 3; ++round) {
    for (std::size_t c = 0; c < n; ++c) {
      const double pred = k * f[c] + b;
      const double r = modpi_residual(wrapped[c], pred);
      snapped[c] = pred + r;
      abs_res[c] = std::abs(r);
    }
    const double scale =
        std::max(config.min_residual_scale,
                 1.4826 * median(std::span<const double>(abs_res)));
    const double threshold = std::min(config.trim_threshold_factor * scale,
                                      config.max_inlier_residual);
    fx.clear();
    fy.clear();
    for (std::size_t c = 0; c < n; ++c) {
      inlier[c] = abs_res[c] <= threshold;
      if (inlier[c]) {
        fx.push_back(f[c]);
        fy.push_back(snapped[c]);
      }
    }
    if (fx.size() < 3) {
      line.channel_inlier.assign(n, false);
      line.residual.assign(n, 0.0);
      return line;
    }
    fit = fit_line(fx, fy);
    k = fit.slope;
    b = fit.intercept;
  }

  // ---- Parity: restore the intercept modulo 2*pi ------------------------
  std::vector<double>& predicted = abs_res;  // the rounds are done with it
  for (std::size_t c = 0; c < n; ++c) predicted[c] = k * f[c] + b;
  const double parity = parity_correction(wrapped, predicted, &inlier);
  fit.intercept += parity;
  fit.y_mean += parity;

  line.fit = fit;
  line.channel_inlier = std::move(inlier);
  line.residual.resize(n);
  for (std::size_t c = 0; c < n; ++c) {
    // Residuals against the parity-corrected line; the snap representative
    // moves with the line, so parity cancels here.
    line.residual[c] = modpi_residual(wrapped[c], k * f[c] + b);
  }
  return line;
}

std::vector<AntennaLine> fit_all_antennas(
    const std::vector<AntennaTrace>& traces, const FittingConfig& config) {
  std::vector<AntennaLine> out;
  out.reserve(traces.size());
  for (const auto& trace : traces) {
    if (trace.frequency_hz.size() < 3) {
      AntennaLine empty;
      empty.antenna = trace.antenna;
      empty.n_channels = trace.frequency_hz.size();
      empty.channel_inlier.assign(empty.n_channels, false);
      out.push_back(std::move(empty));
      continue;
    }
    out.push_back(fit_antenna_line(trace, config));
  }
  return out;
}

}  // namespace rfp
