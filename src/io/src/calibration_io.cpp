#include "rfp/io/calibration_io.hpp"

#include <cmath>
#include <fstream>
#include <iomanip>
#include <istream>
#include <limits>
#include <ostream>
#include <vector>

#include "rfp/common/error.hpp"

namespace rfp {

namespace {

constexpr const char* kMagic = "rfprism-calibration";
constexpr const char* kVersion = "v1";

[[noreturn]] void parse_fail(const std::string& what) {
  throw Error("read_calibrations: " + what);
}

}  // namespace

void write_calibrations(std::ostream& os, const CalibrationDB& db) {
  os << kMagic << ' ' << kVersion << '\n';
  os << std::setprecision(std::numeric_limits<double>::max_digits10);
  if (db.reader().has_value()) {
    const ReaderCalibration& reader = *db.reader();
    os << "reader " << reader.n_antennas() << '\n';
    for (std::size_t i = 0; i < reader.n_antennas(); ++i) {
      os << reader.delta_k[i] << ' ' << reader.delta_b[i] << '\n';
    }
  }
  os << "tags " << db.n_tags() << '\n';
  for (const std::string& id : db.tag_ids()) {
    require(id.find_first_of(" \t\n\r") == std::string::npos,
            "write_calibrations: tag id contains whitespace: '" + id + "'");
    const TagCalibration& cal = *db.find_tag(id);
    os << "tag " << id << ' ' << cal.kd << ' ' << cal.bd << ' '
       << cal.residual_curve.size() << '\n';
    for (std::size_t i = 0; i < cal.residual_curve.size(); ++i) {
      os << cal.residual_curve[i]
         << (i + 1 == cal.residual_curve.size() ? '\n' : ' ');
    }
  }
  if (!os) throw Error("write_calibrations: stream failure");
}

CalibrationDB read_calibrations(std::istream& is) {
  std::string magic, version;
  if (!(is >> magic >> version)) parse_fail("missing header");
  if (magic != kMagic) parse_fail("bad magic '" + magic + "'");
  if (version != kVersion) parse_fail("unsupported version '" + version + "'");

  CalibrationDB db;
  std::string tag;
  if (!(is >> tag)) parse_fail("truncated file");

  if (tag == "reader") {
    std::size_t n_antennas = 0;
    if (!(is >> n_antennas) || n_antennas == 0) {
      parse_fail("bad reader header");
    }
    ReaderCalibration reader;
    reader.delta_k.resize(n_antennas);
    reader.delta_b.resize(n_antennas);
    for (std::size_t i = 0; i < n_antennas; ++i) {
      if (!(is >> reader.delta_k[i] >> reader.delta_b[i])) {
        parse_fail("truncated reader calibration");
      }
    }
    db.set_reader(std::move(reader));
    if (!(is >> tag)) parse_fail("truncated file after reader");
  }

  if (tag != "tags") parse_fail("expected 'tags'");
  std::size_t n_tags = 0;
  if (!(is >> n_tags)) parse_fail("bad tags header");
  for (std::size_t t = 0; t < n_tags; ++t) {
    if (!(is >> tag) || tag != "tag") parse_fail("expected 'tag'");
    std::string id;
    TagCalibration cal;
    std::size_t n_channels = 0;
    if (!(is >> id >> cal.kd >> cal.bd >> n_channels)) {
      parse_fail("bad tag header");
    }
    cal.residual_curve.resize(n_channels);
    for (std::size_t i = 0; i < n_channels; ++i) {
      if (!(is >> cal.residual_curve[i])) parse_fail("truncated residuals");
    }
    db.set_tag(id, std::move(cal));
  }
  return db;
}

void save_calibrations(const std::string& path, const CalibrationDB& db) {
  std::ofstream os(path);
  if (!os) throw Error("save_calibrations: cannot open '" + path + "'");
  write_calibrations(os, db);
}

CalibrationDB load_calibrations(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw Error("load_calibrations: cannot open '" + path + "'");
  return read_calibrations(is);
}

}  // namespace rfp
