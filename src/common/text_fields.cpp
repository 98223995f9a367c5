#include "common/text_fields.hpp"

#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "common/check.hpp"

namespace rt3 {

// std::stoll/std::stod throw std::invalid_argument / std::out_of_range
// (both std::logic_error) on junk or overflow; those become the CheckError
// below, as does a parse that stops short of the token's end.
std::int64_t parse_int(const std::string& what, const std::string& text) {
  long long v = 0;
  bool ok = false;
  try {
    std::size_t pos = 0;
    v = std::stoll(text, &pos);
    ok = pos == text.size();
  } catch (const std::logic_error&) {
  }
  check(ok, what + ": bad integer '" + text + "'");
  return static_cast<std::int64_t>(v);
}

double parse_finite(const std::string& what, const std::string& text) {
  double v = 0.0;
  bool ok = false;
  try {
    std::size_t pos = 0;
    v = std::stod(text, &pos);
    ok = pos == text.size();
  } catch (const std::logic_error&) {
  }
  check(ok, what + ": bad number '" + text + "'");
  check(std::isfinite(v), what + ": non-finite value '" + text + "'");
  return v;
}

std::string take_kv(std::istream& in, const std::string& who,
                    const std::string& key) {
  std::string token;
  check(static_cast<bool>(in >> token) && token.rfind(key + "=", 0) == 0,
        who + ": expected " + key + "=...");
  return token.substr(key.size() + 1);
}

std::string take_field(std::istream& in, const std::string& who,
                       const std::string& name) {
  std::string label;
  std::string value;
  check(static_cast<bool>(in >> label >> value) && label == name,
        who + ": expected '" + name + " <value>'");
  return value;
}

std::string format_g17(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace rt3
