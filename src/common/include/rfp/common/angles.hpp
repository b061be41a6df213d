#pragma once

#include <span>
#include <vector>

/// \file angles.hpp
/// Circular (angular) arithmetic. RFID phase readings live on the circle
/// [0, 2pi); nearly every bug in phase pipelines is a wrap-around bug, so all
/// wrap/diff/mean logic is centralized here and unit-tested exhaustively.

namespace rfp {

/// IEEE remainder of `x` by kPi, in [-pi/2, pi/2]. Bitwise equal to
/// std::remainder(x, kPi) for every input (NaN, +-inf and +-0 included),
/// but computed by an exact two-constant reduction, without libm, for
/// |x| below 2^20 * pi.
double remainder_pi(double x);

/// Wrap an angle to [0, 2*pi). Bitwise equal to reducing with
/// std::fmod(a, kTwoPi) and then adding kTwoPi to a negative result; the
/// fmod step is the same exact reduction as remainder_pi's.
double wrap_to_2pi(double a);

/// Wrap an angle to [-pi, pi).
double wrap_to_pi(double a);

/// Signed circular difference a - b, wrapped to [-pi, pi).
/// This is the shortest rotation taking b to a.
double ang_diff(double a, double b);

/// Circular mean of a set of angles (atan2 of mean unit vectors).
/// Throws InvalidArgument if `angles` is empty or the mean resultant vector
/// is numerically zero (mean undefined, e.g. two antipodal angles).
double circular_mean(std::span<const double> angles);

/// Unwrap a sequence of angles: returns a copy where each element differs
/// from its predecessor by less than pi in absolute value (adds multiples of
/// 2*pi). The first element is kept as-is.
std::vector<double> unwrap(std::span<const double> wrapped);

/// Degrees -> radians.
constexpr double deg2rad(double deg) {
  return deg * 3.14159265358979323846 / 180.0;
}

/// Radians -> degrees.
constexpr double rad2deg(double rad) {
  return rad * 180.0 / 3.14159265358979323846;
}

}  // namespace rfp
