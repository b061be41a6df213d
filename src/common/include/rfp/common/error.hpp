#pragma once

#include <stdexcept>
#include <string>
#include <string_view>

/// \file error.hpp
/// Exception hierarchy and precondition assertions. Following the Core
/// Guidelines (E.2, I.6): throw on contract violations and unrecoverable
/// states; keep error types specific enough for callers to discriminate.

namespace rfp {

/// Base class for all rfprism errors.
class Error : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// A function argument violated a documented precondition.
class InvalidArgument : public Error {
 public:
  using Error::Error;
};

/// A numeric routine failed to converge or produced a degenerate result.
class NumericalError : public Error {
 public:
  using Error::Error;
};

/// A lookup (tag id, material name, calibration entry) found nothing.
class NotFound : public Error {
 public:
  using Error::Error;
};

/// Throw InvalidArgument when `cond` is false. The message is only copied
/// on failure, so a passing check on the hot path never allocates.
inline void require(bool cond, std::string_view what) {
  if (!cond) throw InvalidArgument(std::string(what));
}

}  // namespace rfp
