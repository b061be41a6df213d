#pragma once

#include <iosfwd>
#include <string>

#include "rfp/core/types.hpp"

/// \file geometry_io.hpp
/// Plain-text serialization of a surveyed deployment geometry. The survey
/// (antenna positions + boresight frames + working region) is measured
/// once per site; persisting it lets rfpd serve a deployment it never
/// constructed itself (`rfpd --geometry site.geom`) and lets operators
/// diff and version-control the survey like any other config.
///
/// Format ("rfprism-geometry v1"):
///
///   rfprism-geometry v1
///   antennas <n>
///   antenna <px py pz> <ux uy uz> <vx vy vz> <nx ny nz>   (n lines)
///   region <lo.x> <lo.y> <hi.x> <hi.y>
///   tag-plane-z <z>

namespace rfp {

void write_geometry(std::ostream& os, const DeploymentGeometry& geometry);

/// Parse a geometry. Throws Error on syntax/version problems and on
/// non-finite values (is_finite). Semantic validation (>= 3 antennas,
/// region extent) stays with RfPrism's constructor.
DeploymentGeometry read_geometry(std::istream& is);

void save_geometry(const std::string& path,
                   const DeploymentGeometry& geometry);
DeploymentGeometry load_geometry(const std::string& path);

}  // namespace rfp
