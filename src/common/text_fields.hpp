// Strict text fields, shared by the line-oriented artifact formats
// (rt3-tuning records, rt3-governor artifacts), the command-line flags and
// the bench executables' operands.  A number must be the WHOLE token:
// trailing garbage, overflow and (for doubles) nan/inf are refused.  Every
// failure is a CheckError naming the field or flag and the token, never a
// bare std::stoll/std::stod exception.
#pragma once

#include <cstdint>
#include <istream>
#include <string>

namespace rt3 {

/// `text` as a base-10 integer; `what` names the field in the error.
std::int64_t parse_int(const std::string& what, const std::string& text);

/// `text` as a finite double; `what` names the field in the error.
double parse_finite(const std::string& what, const std::string& text);

/// Consumes one "key=value" token and returns the value; `who` prefixes
/// the error.
std::string take_kv(std::istream& in, const std::string& who,
                    const std::string& key);

/// Consumes "name <value>" and returns the value; `who` prefixes the
/// error.
std::string take_field(std::istream& in, const std::string& who,
                       const std::string& name);

/// Requires that `in` holds nothing but whitespace past the artifact's
/// last field; otherwise throws CheckError, prefixed by `who`, naming the
/// first extra token.
void check_no_trailing(std::istream& in, const std::string& who);

/// 17 significant digits: a double -> text -> double round trip is
/// bit-exact (floats widen exactly), so re-serializing a parsed artifact
/// is byte-identical.
std::string format_g17(double v);

}  // namespace rt3
