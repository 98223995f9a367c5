// Lightweight precondition / invariant checking used across all rt3 modules.
//
// rt3 is a research library: violated preconditions are programming errors,
// so they throw (they are recoverable in tests and benches, and we never
// want silent corruption in a numerical pipeline).
#pragma once

#include <cstdint>
#include <limits>
#include <source_location>
#include <stdexcept>
#include <string>
#include <type_traits>

namespace rt3 {

/// Error thrown when a precondition or internal invariant fails.
class CheckError : public std::logic_error {
 public:
  using std::logic_error::logic_error;
};

/// Throws CheckError with file:line context when `cond` is false.
inline void check(bool cond, const std::string& msg,
                  std::source_location loc = std::source_location::current()) {
  if (!cond) {
    throw CheckError(std::string(loc.file_name()) + ":" +
                     std::to_string(loc.line()) + ": " + msg);
  }
}

/// String-literal overload: builds no std::string (and so does no heap
/// allocation) unless the check fails, which keeps checks on hot paths
/// such as Var::value() free.
inline void check(bool cond, const char* msg,
                  std::source_location loc = std::source_location::current()) {
  if (!cond) {
    check(false, std::string(msg), loc);
  }
}

/// Checked narrowing conversion (Core Guidelines ES.46 / GSL narrow).
/// Throws CheckError if the value does not survive a round trip or the sign
/// changes.
template <typename To, typename From>
To narrow(From value,
          std::source_location loc = std::source_location::current()) {
  static_assert(std::is_arithmetic_v<To> && std::is_arithmetic_v<From>);
  const To result = static_cast<To>(value);
  if (static_cast<From>(result) != value) {
    throw CheckError(std::string(loc.file_name()) + ":" +
                     std::to_string(loc.line()) + ": narrowing lost value");
  }
  if constexpr (std::is_signed_v<From> != std::is_signed_v<To>) {
    if ((value < From{}) != (result < To{})) {
      throw CheckError(std::string(loc.file_name()) + ":" +
                       std::to_string(loc.line()) + ": narrowing changed sign");
    }
  }
  return result;
}

/// Signed size of a container (Core Guidelines ES.107: avoid unsigned
/// arithmetic in indexing logic).
template <typename Container>
std::int64_t ssize_of(const Container& c) {
  return static_cast<std::int64_t>(c.size());
}

}  // namespace rt3
