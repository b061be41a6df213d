#pragma once

#include "rfp/core/types.hpp"
#include "rfp/rfsim/reader.hpp"

/// \file preprocess.hpp
/// Signal pre-processing module (paper §III, module 1): turn a raw hop
/// round into one multi-frequency trace per antenna — denoise per-dwell
/// reads and correct sudden pi jumps. The 2*pi folding is left to the
/// fitter, which works modulo pi (fitting.hpp).

namespace rfp {

/// Pre-process one hop round into per-antenna traces. Antenna index `i` of
/// the result is antenna `i` of the round. Dwells with no reads are
/// skipped; a channel dwelt on twice keeps the dwell with more reads (the
/// earlier one on a tie); an antenna with no usable dwell yields an empty
/// trace (callers check). Throws InvalidArgument on a malformed trace (zero
/// antennas, an antenna index out of range, a frequency <= 0).
std::vector<AntennaTrace> preprocess_round(const RoundTrace& round);

}  // namespace rfp
