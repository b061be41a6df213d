#pragma once

/// Bitwise comparison of doubles, for tests that pin a result to a
/// reference computation bit for bit.

#include <cmath>
#include <cstring>

namespace rfp::testutil {

/// Bitwise equality, with any NaN matching any NaN.
inline bool same_bits(double a, double b) {
  if (std::isnan(a) && std::isnan(b)) return true;
  return std::memcmp(&a, &b, sizeof a) == 0;
}

}  // namespace rfp::testutil
