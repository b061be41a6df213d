#pragma once

#include <span>

/// \file phase_prep.hpp
/// Signal pre-processing (paper §III, first module): denoise raw per-read
/// phases and correct the "sudden pi jump" a commodity reader introduces.
///
/// A reader dwell on one channel yields many raw reads; a random subset of
/// them is offset by pi (a demodulation ambiguity of COTS readers). Within
/// a dwell the true phase is constant, so the reads form two antipodal
/// clusters; we fold, average, and unfold.

namespace rfp {

/// One denoised channel observation.
struct ChannelPhase {
  double frequency_hz = 0.0;
  double phase = 0.0;       ///< wrapped to [0, 2*pi)
  std::size_t n_reads = 0;  ///< reads aggregated into this value
};

/// Aggregate one dwell's raw reads into a single phase.
///
/// Pi-jump correction: map every read into [0, pi) modulo pi (which erases
/// the pi ambiguity), take the circular mean with period pi, then restore
/// the half-turn by majority vote of the corrected reads. Throws on empty
/// input.
ChannelPhase aggregate_dwell(double frequency_hz,
                             std::span<const double> raw_phases);

}  // namespace rfp
