#pragma once

#include <iosfwd>
#include <string>

#include "rfp/core/calibration.hpp"

/// \file calibration_io.hpp
/// Plain-text serialization of the calibration database: the antenna-port
/// equalization (paper §IV-C) is measured once per deployment and each
/// tag's theta_device0 (paper §V-B) once per tag, so persisting them
/// across process restarts is part of normal operation.
///
/// Format ("rfprism-calibration v1"):
///
///   rfprism-calibration v1
///   reader <n_antennas>                  (absent when not calibrated)
///   <delta_k> <delta_b>                  (n_antennas lines)
///   tags <n_tags>
///   tag <id> <kd> <bd> <n_channels>
///   <residual>                           (n_channels values, whitespace)

namespace rfp {

void write_calibrations(std::ostream& os, const CalibrationDB& db);

/// Parse a database. Throws Error on syntax/version problems.
CalibrationDB read_calibrations(std::istream& is);

void save_calibrations(const std::string& path, const CalibrationDB& db);
CalibrationDB load_calibrations(const std::string& path);

}  // namespace rfp
