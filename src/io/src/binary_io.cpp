#include "rfp/io/binary_io.hpp"

#include "rfp/common/error.hpp"

namespace rfp {

namespace {

// Per-element minimum encoded sizes, used to validate counts against the
// bytes actually present before any container is resized.
constexpr std::size_t kDwellMinBytes = 4 + 4 + 8 + 8 + 4;
constexpr std::size_t kLineMinBytes = 4 + 9 * 8 + 4 + 4 + 3 * 4;

bool read_count(ByteReader& r, std::size_t per_element_min,
                std::size_t& out) {
  const std::uint32_t n = r.u32();
  if (!r.ok() || r.remaining() < n * per_element_min) {
    r.fail();
    return false;
  }
  out = n;
  return true;
}

bool read_index_array(ByteReader& r, std::vector<std::size_t>& out) {
  std::size_t n = 0;
  if (!read_count(r, 4, n)) return false;
  out.resize(n);
  for (std::size_t i = 0; i < n; ++i) out[i] = r.u32();
  return r.ok();
}

bool read_f64_array(ByteReader& r, std::vector<double>& out) {
  std::size_t n = 0;
  if (!read_count(r, 8, n)) return false;
  return r.f64_array(n, out);
}

void append_index_array(ByteWriter& w, const std::vector<std::size_t>& v) {
  w.u32(static_cast<std::uint32_t>(v.size()));
  for (std::size_t x : v) w.u32(static_cast<std::uint32_t>(x));
}

void append_f64_array(ByteWriter& w, const std::vector<double>& v) {
  w.u32(static_cast<std::uint32_t>(v.size()));
  for (double x : v) w.f64(x);
}

void append_fit(ByteWriter& w, const LineFit& fit) {
  w.f64(fit.slope);
  w.f64(fit.intercept);
  w.f64(fit.x_mean);
  w.f64(fit.y_mean);
  w.f64(fit.rmse);
  w.f64(fit.r2);
  w.f64(fit.slope_stderr);
  w.f64(fit.mid_stderr);
  w.u32(static_cast<std::uint32_t>(fit.n));
}

bool read_fit(ByteReader& r, LineFit& fit) {
  fit.slope = r.f64();
  fit.intercept = r.f64();
  fit.x_mean = r.f64();
  fit.y_mean = r.f64();
  fit.rmse = r.f64();
  fit.r2 = r.f64();
  fit.slope_stderr = r.f64();
  fit.mid_stderr = r.f64();
  fit.n = r.u32();
  return r.ok();
}

void append_vec3(ByteWriter& w, const Vec3& v) {
  w.f64(v.x);
  w.f64(v.y);
  w.f64(v.z);
}

bool read_vec3(ByteReader& r, Vec3& v) {
  v.x = r.f64();
  v.y = r.f64();
  v.z = r.f64();
  return r.ok();
}

}  // namespace

void append_round(ByteWriter& w, const RoundTrace& round) {
  // Exact encoded size, so multi-KiB rounds are one reserve, not a
  // doubling ladder of reallocations.
  std::size_t total = 4 + 8 + 4;
  for (const Dwell& dwell : round.dwells) {
    total += kDwellMinBytes + 2 * 8 * dwell.phases.size();
  }
  w.reserve(total);
  w.u32(static_cast<std::uint32_t>(round.n_antennas));
  w.f64(round.duration_s);
  w.u32(static_cast<std::uint32_t>(round.dwells.size()));
  for (const Dwell& dwell : round.dwells) {
    require(dwell.phases.size() == dwell.rssi_dbm.size(),
            "append_round: phase/RSSI length mismatch in dwell");
    w.u32(static_cast<std::uint32_t>(dwell.antenna));
    w.u32(static_cast<std::uint32_t>(dwell.channel));
    w.f64(dwell.frequency_hz);
    w.f64(dwell.start_time_s);
    w.u32(static_cast<std::uint32_t>(dwell.phases.size()));
    for (double phase : dwell.phases) w.f64(phase);
    for (double rssi : dwell.rssi_dbm) w.f64(rssi);
  }
}

bool read_round(ByteReader& r, RoundTrace& out) {
  // No blanket reset: every field below is overwritten, and keeping the
  // dwell/phase vector capacities is what lets a reactor decode rounds
  // into reused scratch without per-request heap traffic.
  out.n_antennas = r.u32();
  out.duration_s = r.f64();
  std::size_t n_dwells = 0;
  if (!read_count(r, kDwellMinBytes, n_dwells)) return false;
  out.dwells.resize(n_dwells);
  for (Dwell& dwell : out.dwells) {
    dwell.antenna = r.u32();
    dwell.channel = r.u32();
    dwell.frequency_hz = r.f64();
    dwell.start_time_s = r.f64();
    std::size_t n_reads = 0;
    if (!read_count(r, 2 * 8, n_reads)) return false;
    if (!r.f64_array(n_reads, dwell.phases)) return false;
    if (!r.f64_array(n_reads, dwell.rssi_dbm)) return false;
  }
  return r.ok();
}

void append_result(ByteWriter& w, const SensingResult& result) {
  w.u8(result.valid ? 1 : 0);
  w.u8(static_cast<std::uint8_t>(result.reject_reason));
  w.u8(static_cast<std::uint8_t>(result.grade));
  append_index_array(w, result.excluded_antennas);
  append_index_array(w, result.unhealthy_antennas);
  append_vec3(w, result.position);
  w.f64(result.position_residual);
  w.f64(result.alpha);
  append_vec3(w, result.polarization);
  w.f64(result.orientation_residual);
  w.f64(result.kt);
  w.f64(result.bt);
  append_f64_array(w, result.material_signature);
  w.u32(static_cast<std::uint32_t>(result.lines.size()));
  for (const AntennaLine& line : result.lines) {
    w.u32(static_cast<std::uint32_t>(line.antenna));
    append_fit(w, line.fit);
    w.u32(static_cast<std::uint32_t>(line.n_channels));
    w.u32(static_cast<std::uint32_t>(line.channel_inlier.size()));
    for (bool inlier : line.channel_inlier) w.u8(inlier ? 1 : 0);
    append_f64_array(w, line.residual);
    append_f64_array(w, line.frequency_hz);
  }
}

bool read_result(ByteReader& r, SensingResult& out) {
  out = SensingResult{};
  const std::uint8_t valid = r.u8();
  const std::uint8_t reason = r.u8();
  const std::uint8_t grade = r.u8();
  if (!r.ok() || valid > 1 ||
      reason > static_cast<std::uint8_t>(RejectReason::kAntennaHealth) ||
      grade > static_cast<std::uint8_t>(SensingGrade::kRejected)) {
    r.fail();
    return false;
  }
  out.valid = valid != 0;
  out.reject_reason = static_cast<RejectReason>(reason);
  out.grade = static_cast<SensingGrade>(grade);
  if (!read_index_array(r, out.excluded_antennas)) return false;
  if (!read_index_array(r, out.unhealthy_antennas)) return false;
  if (!read_vec3(r, out.position)) return false;
  out.position_residual = r.f64();
  out.alpha = r.f64();
  if (!read_vec3(r, out.polarization)) return false;
  out.orientation_residual = r.f64();
  out.kt = r.f64();
  out.bt = r.f64();
  if (!read_f64_array(r, out.material_signature)) return false;
  std::size_t n_lines = 0;
  if (!read_count(r, kLineMinBytes, n_lines)) return false;
  out.lines.resize(n_lines);
  for (AntennaLine& line : out.lines) {
    line.antenna = r.u32();
    if (!read_fit(r, line.fit)) return false;
    line.n_channels = r.u32();
    std::size_t n_inliers = 0;
    if (!read_count(r, 1, n_inliers)) return false;
    line.channel_inlier.resize(n_inliers);
    for (std::size_t i = 0; i < n_inliers; ++i) {
      line.channel_inlier[i] = r.u8() != 0;
    }
    if (!read_f64_array(r, line.residual)) return false;
    if (!read_f64_array(r, line.frequency_hz)) return false;
  }
  return r.ok();
}

void append_geometry(ByteWriter& w, const DeploymentGeometry& geometry) {
  require(geometry.antenna_frames.size() == geometry.antenna_positions.size(),
          "append_geometry: frame count does not match position count");
  w.reserve(4 + geometry.antenna_positions.size() * 12 * 8 + 5 * 8);
  w.u32(static_cast<std::uint32_t>(geometry.antenna_positions.size()));
  for (std::size_t i = 0; i < geometry.antenna_positions.size(); ++i) {
    append_vec3(w, geometry.antenna_positions[i]);
    append_vec3(w, geometry.antenna_frames[i].u);
    append_vec3(w, geometry.antenna_frames[i].v);
    append_vec3(w, geometry.antenna_frames[i].n);
  }
  w.f64(geometry.working_region.lo.x);
  w.f64(geometry.working_region.lo.y);
  w.f64(geometry.working_region.hi.x);
  w.f64(geometry.working_region.hi.y);
  w.f64(geometry.tag_plane_z);
}

bool read_geometry(ByteReader& r, DeploymentGeometry& out) {
  out = DeploymentGeometry{};
  std::size_t n_antennas = 0;
  // Position (3 doubles) + orthonormal frame (9 doubles) per antenna.
  if (!read_count(r, 12 * 8, n_antennas)) return false;
  out.antenna_positions.resize(n_antennas);
  out.antenna_frames.resize(n_antennas);
  for (std::size_t i = 0; i < n_antennas; ++i) {
    if (!read_vec3(r, out.antenna_positions[i])) return false;
    if (!read_vec3(r, out.antenna_frames[i].u)) return false;
    if (!read_vec3(r, out.antenna_frames[i].v)) return false;
    if (!read_vec3(r, out.antenna_frames[i].n)) return false;
  }
  out.working_region.lo.x = r.f64();
  out.working_region.lo.y = r.f64();
  out.working_region.hi.x = r.f64();
  out.working_region.hi.y = r.f64();
  out.tag_plane_z = r.f64();
  return r.ok();
}

void append_calibration_db(ByteWriter& w, const CalibrationDB& db) {
  if (db.reader().has_value()) {
    const ReaderCalibration& reader = *db.reader();
    require(reader.delta_b.size() == reader.delta_k.size(),
            "append_calibration_db: delta_k/delta_b length mismatch");
    w.u8(1);
    append_f64_array(w, reader.delta_k);
    append_f64_array(w, reader.delta_b);
  } else {
    w.u8(0);
  }
  // tag_ids() is sorted: one canonical encoding per database value.
  const std::vector<std::string> ids = db.tag_ids();
  w.u32(static_cast<std::uint32_t>(ids.size()));
  for (const std::string& id : ids) {
    const TagCalibration& cal = *db.find_tag(id);
    w.str(id);
    w.f64(cal.kd);
    w.f64(cal.bd);
    append_f64_array(w, cal.residual_curve);
  }
}

bool read_calibration_db(ByteReader& r, CalibrationDB& out) {
  out = CalibrationDB{};
  const std::uint8_t has_reader = r.u8();
  if (!r.ok() || has_reader > 1) {
    r.fail();
    return false;
  }
  if (has_reader == 1) {
    ReaderCalibration reader;
    if (!read_f64_array(r, reader.delta_k)) return false;
    if (!read_f64_array(r, reader.delta_b)) return false;
    if (reader.delta_b.size() != reader.delta_k.size()) {
      r.fail();
      return false;
    }
    out.set_reader(std::move(reader));
  }
  std::size_t n_tags = 0;
  // Per-tag minimum: id length prefix + kd + bd + residual count.
  if (!read_count(r, 4 + 8 + 8 + 4, n_tags)) return false;
  for (std::size_t t = 0; t < n_tags; ++t) {
    const std::string id = r.str();
    TagCalibration cal;
    cal.kd = r.f64();
    cal.bd = r.f64();
    if (!r.ok() || !read_f64_array(r, cal.residual_curve)) return false;
    if (out.has_tag(id)) {
      r.fail();  // duplicate keys would make the encoding non-canonical
      return false;
    }
    out.set_tag(id, std::move(cal));
  }
  return r.ok();
}

std::vector<std::uint8_t> encode_round(const RoundTrace& round) {
  std::vector<std::uint8_t> out;
  ByteWriter w(out);
  append_round(w, round);
  return out;
}

bool decode_round(std::span<const std::uint8_t> data, RoundTrace& out) {
  ByteReader r(data);
  return read_round(r, out) && r.exhausted();
}

std::vector<std::uint8_t> encode_result(const SensingResult& result) {
  std::vector<std::uint8_t> out;
  ByteWriter w(out);
  append_result(w, result);
  return out;
}

bool decode_result(std::span<const std::uint8_t> data, SensingResult& out) {
  ByteReader r(data);
  return read_result(r, out) && r.exhausted();
}

}  // namespace rfp
