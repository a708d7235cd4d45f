// Error handling primitives for the kibamrm library.
//
// The library reports contract violations and invalid models through
// exceptions derived from kibamrm::Error.  Numerical routines that can fail
// for legitimate reasons (e.g. a root not bracketed) also throw, carrying a
// message that names the offending quantity.
#pragma once

#include <source_location>
#include <stdexcept>
#include <string>

namespace kibamrm {

/// Base class for all errors thrown by the kibamrm library.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// A caller violated a documented precondition (bad argument, bad model).
class InvalidArgument : public Error {
 public:
  explicit InvalidArgument(const std::string& what) : Error(what) {}
};

/// A model definition is structurally invalid (e.g. generator row sums
/// non-zero, negative off-diagonal rate, currents of wrong sign).
class ModelError : public Error {
 public:
  explicit ModelError(const std::string& what) : Error(what) {}
};

/// A numerical routine failed to converge or was asked for an infeasible
/// computation (e.g. Fox-Glynn underflow at extreme lambda).
class NumericalError : public Error {
 public:
  explicit NumericalError(const std::string& what) : Error(what) {}
};

namespace detail {
[[noreturn]] void throw_requirement_failure(const char* expr,
                                            const std::string& message,
                                            std::source_location where);
}  // namespace detail

/// Checks a precondition; throws InvalidArgument naming the expression and
/// source location on failure.  Used at public API boundaries (always on,
/// including release builds: model construction is not on any hot path).
#define KIBAMRM_REQUIRE(expr, message)                          \
  do {                                                          \
    if (!(expr)) {                                              \
      ::kibamrm::detail::throw_requirement_failure(             \
          #expr, (message), std::source_location::current());   \
    }                                                           \
  } while (false)

}  // namespace kibamrm
