#pragma once

#include <cmath>
#include <optional>
#include <string>
#include <vector>

#include "rfp/dsp/linear_fit.hpp"
#include "rfp/geom/frame.hpp"
#include "rfp/geom/vec.hpp"

/// \file types.hpp
/// Core data types shared across the RF-Prism pipeline stages.
///
/// The pipeline only ever sees: (a) the deployment geometry *as measured*
/// (paper §III: "the accurate coordinates and directions of the antennas
/// are measured during the deployment" — measured, hence imperfect), and
/// (b) raw (frequency, antenna, phase, RSSI) reads. Everything else is
/// inferred.

namespace rfp {

/// Deployment geometry the pipeline is allowed to know.
struct DeploymentGeometry {
  std::vector<Vec3> antenna_positions;   ///< measured phase centers [m]
  std::vector<OrthoFrame> antenna_frames;  ///< measured aperture frames
  Rect working_region{{0.0, 0.0}, {2.0, 2.0}};  ///< search region (xy)
  double tag_plane_z = 0.0;  ///< z of the tag plane for 2D sensing

  std::size_t n_antennas() const { return antenna_positions.size(); }
};

/// True when every antenna position and frame axis, both working-region
/// corners and the tag-plane height are finite. RfPrism's constructor and
/// read_geometry() reject a geometry that is not.
inline bool is_finite(const DeploymentGeometry& geometry) {
  const auto finite = [](const Vec3& v) {
    return std::isfinite(v.x) && std::isfinite(v.y) && std::isfinite(v.z);
  };
  for (const Vec3& p : geometry.antenna_positions) {
    if (!finite(p)) return false;
  }
  for (const OrthoFrame& f : geometry.antenna_frames) {
    if (!finite(f.u) || !finite(f.v) || !finite(f.n)) return false;
  }
  const Rect& region = geometry.working_region;
  return std::isfinite(region.lo.x) && std::isfinite(region.lo.y) &&
         std::isfinite(region.hi.x) && std::isfinite(region.hi.y) &&
         std::isfinite(geometry.tag_plane_z);
}

/// One antenna's pre-processed multi-frequency trace, exactly the input of
/// the line fit: one denoised, pi-jump corrected phase per channel. The
/// phases stay wrapped: the fitter searches for the line modulo pi rather
/// than unwrapping, because one corrupted channel can fold a sequential
/// unwrap.
struct AntennaTrace {
  std::size_t antenna = 0;
  std::vector<double> frequency_hz;   ///< ascending
  std::vector<double> wrapped_phase;  ///< per channel, [0, 2*pi)
};

/// Result of the per-antenna multi-frequency linear fit (paper Eq. 6):
/// theta_i(f) = k_i * f + b_i, after multipath channel selection.
struct AntennaLine {
  std::size_t antenna = 0;
  LineFit fit;                      ///< over inlier channels
  std::vector<bool> channel_inlier;  ///< which channels survived selection
  std::size_t n_channels = 0;        ///< channels available before selection
  /// Per-channel residuals from the fitted line (all channels, including
  /// outliers); feeds the material features and the error detector.
  std::vector<double> residual;
  std::vector<double> frequency_hz;  ///< abscissae matching `residual`
};

/// Why a sensing window was rejected by the error detector (paper §V-C)
/// or the degraded-mode antenna gate.
enum class RejectReason {
  kNone,            ///< not rejected
  kMobility,        ///< phase/frequency linearity broken: tag moved/rotated
  kTooFewChannels,  ///< multipath suppression left too few clean channels
  kSolverFailure,   ///< the disentangling solve did not converge
  kAntennaHealth,   ///< too few healthy antenna ports to disentangle at all
};

const char* to_string(RejectReason reason);

/// Quality grade of a sensing emission. A degraded result is still a real
/// pose — it was just solved on a healthy antenna subset because one or
/// more ports delivered unusable data (dead port, burst interference).
enum class SensingGrade {
  kFull,      ///< every antenna contributed
  kDegraded,  ///< solved on a healthy subset; see excluded_antennas
  kRejected,  ///< no pose emitted; see reject_reason
};

const char* to_string(SensingGrade grade);

/// Disentangled physical state of one tag from one hop round.
struct SensingResult {
  bool valid = false;
  RejectReason reject_reason = RejectReason::kSolverFailure;
  SensingGrade grade = SensingGrade::kRejected;
  /// Ports excluded from the solve (unhealthy fit this round, or
  /// quarantined by an AntennaHealthMonitor). Empty for kFull results.
  std::vector<std::size_t> excluded_antennas;
  /// The subset of excluded_antennas whose *this-round* data failed the
  /// health gate. A quarantined port with clean current data appears in
  /// excluded_antennas but not here — which is what lets a health monitor
  /// observe its recovery and re-admit it.
  std::vector<std::size_t> unhealthy_antennas;

  // -- Localization ------------------------------------------------------
  Vec3 position;           ///< estimated tag position [m]
  double position_residual = 0.0;  ///< RMS slope-equation residual [rad/Hz]

  // -- Orientation -------------------------------------------------------
  /// Planar polarization angle alpha in [0, pi) for 2D sensing.
  double alpha = 0.0;
  /// Full polarization direction (unit); equals planar_polarization(alpha)
  /// in 2D mode.
  Vec3 polarization{1.0, 0.0, 0.0};
  double orientation_residual = 0.0;  ///< RMS intercept-equation residual [rad]

  // -- Material ----------------------------------------------------------
  double kt = 0.0;  ///< material+device slope [rad/Hz] (calibrated if possible)
  double bt = 0.0;  ///< material+device intercept [rad], wrapped to [0, 2pi)
  /// Per-channel material signature theta_material(f): fit residuals
  /// averaged over antennas, device0-compensated when a tag calibration is
  /// available. Length = number of channels; 0.0 for dropped channels.
  std::vector<double> material_signature;

  // -- Diagnostics -------------------------------------------------------
  std::vector<AntennaLine> lines;  ///< per-antenna fits (diagnostics)
};

}  // namespace rfp
