#include "rfp/io/geometry_io.hpp"

#include <fstream>
#include <iomanip>
#include <istream>
#include <limits>
#include <ostream>

#include "rfp/common/error.hpp"

namespace rfp {

namespace {

constexpr const char* kMagic = "rfprism-geometry";
constexpr const char* kVersion = "v1";

[[noreturn]] void parse_fail(const std::string& what) {
  throw Error("read_geometry: " + what);
}

bool read_vec3(std::istream& is, Vec3& v) {
  return static_cast<bool>(is >> v.x >> v.y >> v.z);
}

}  // namespace

void write_geometry(std::ostream& os, const DeploymentGeometry& geometry) {
  require(geometry.antenna_frames.size() == geometry.antenna_positions.size(),
          "write_geometry: frame count does not match position count");
  os << kMagic << ' ' << kVersion << '\n';
  os << std::setprecision(std::numeric_limits<double>::max_digits10);
  os << "antennas " << geometry.antenna_positions.size() << '\n';
  for (std::size_t i = 0; i < geometry.antenna_positions.size(); ++i) {
    const Vec3& p = geometry.antenna_positions[i];
    const OrthoFrame& f = geometry.antenna_frames[i];
    os << "antenna " << p.x << ' ' << p.y << ' ' << p.z << ' ' << f.u.x << ' '
       << f.u.y << ' ' << f.u.z << ' ' << f.v.x << ' ' << f.v.y << ' '
       << f.v.z << ' ' << f.n.x << ' ' << f.n.y << ' ' << f.n.z << '\n';
  }
  os << "region " << geometry.working_region.lo.x << ' '
     << geometry.working_region.lo.y << ' ' << geometry.working_region.hi.x
     << ' ' << geometry.working_region.hi.y << '\n';
  os << "tag-plane-z " << geometry.tag_plane_z << '\n';
  if (!os) throw Error("write_geometry: stream failure");
}

DeploymentGeometry read_geometry(std::istream& is) {
  std::string magic, version;
  if (!(is >> magic >> version)) parse_fail("missing header");
  if (magic != kMagic) parse_fail("bad magic '" + magic + "'");
  if (version != kVersion) parse_fail("unsupported version '" + version + "'");

  std::string token;
  std::size_t n_antennas = 0;
  if (!(is >> token) || token != "antennas" || !(is >> n_antennas)) {
    parse_fail("bad antennas header");
  }
  if (n_antennas == 0) parse_fail("zero antennas");

  DeploymentGeometry geometry;
  geometry.antenna_positions.resize(n_antennas);
  geometry.antenna_frames.resize(n_antennas);
  for (std::size_t i = 0; i < n_antennas; ++i) {
    if (!(is >> token) || token != "antenna") parse_fail("expected 'antenna'");
    OrthoFrame& frame = geometry.antenna_frames[i];
    if (!read_vec3(is, geometry.antenna_positions[i]) ||
        !read_vec3(is, frame.u) || !read_vec3(is, frame.v) ||
        !read_vec3(is, frame.n)) {
      parse_fail("truncated antenna line");
    }
  }

  if (!(is >> token) || token != "region" ||
      !(is >> geometry.working_region.lo.x >> geometry.working_region.lo.y >>
        geometry.working_region.hi.x >> geometry.working_region.hi.y)) {
    parse_fail("bad region line");
  }
  if (!(is >> token) || token != "tag-plane-z" ||
      !(is >> geometry.tag_plane_z)) {
    parse_fail("bad tag-plane-z line");
  }
  if (!is_finite(geometry)) parse_fail("non-finite values");
  return geometry;
}

void save_geometry(const std::string& path,
                   const DeploymentGeometry& geometry) {
  std::ofstream os(path);
  if (!os) throw Error("save_geometry: cannot open '" + path + "'");
  write_geometry(os, geometry);
}

DeploymentGeometry load_geometry(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw Error("load_geometry: cannot open '" + path + "'");
  return read_geometry(is);
}

}  // namespace rfp
