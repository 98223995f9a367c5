// Tiny shared command-line parsing for the rt3 CLI and the bench
// executables: "--flag value" and "--flag=value" are both accepted, and
// positional operands pass through untouched.  Deliberately dependency-free
// — just enough for tools that want one consistent flag style.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace rt3 {

/// Normalizes argv[begin..argc): every "--flag=value" token splits into
/// "--flag", "value"; everything else is kept verbatim, in order.
std::vector<std::string> split_flag_args(int argc, char** argv,
                                         int begin = 1);

/// Value of `flag` as a finite double; `fallback` when absent.  Throws
/// a CheckError naming the flag unless the WHOLE value parses (trailing
/// garbage like "3.5x" is rejected, not truncated) to a finite number
/// (nan, inf and overflow are rejected).
double arg_double(const std::vector<std::string>& args,
                  const std::string& flag, double fallback);

/// Value of `flag` as an integer; `fallback` when absent.  Throws a
/// CheckError naming the flag on trailing garbage ("3x") or overflow.
std::int64_t arg_int(const std::vector<std::string>& args,
                     const std::string& flag, std::int64_t fallback);

/// Value of `flag` as a string; `fallback` when absent.
std::string arg_string(const std::vector<std::string>& args,
                       const std::string& flag, const std::string& fallback);

/// True when `flag` appears (with or without a value).
bool arg_present(const std::vector<std::string>& args,
                 const std::string& flag);

/// Throws a CheckError naming the first "--flag" token in `args` that is
/// not in `known` (`who` prefixes the message), so a typo or a removed
/// flag fails loudly instead of silently changing nothing.
void reject_unknown_flags(const std::vector<std::string>& args,
                          const std::vector<std::string>& known,
                          const std::string& who);

/// The positional (non-flag) operands: tokens not starting with "--" that
/// are not consumed as some preceding flag's value.  CONTRACT: a token
/// right after a "--flag" is treated as that flag's value UNLESS the flag
/// is listed in `presence_flags` (flags that take no value, e.g.
/// "--shed") — callers with presence-only flags must pass them here or a
/// following positional is mis-read as the flag's value.
std::vector<std::string> positional_args(
    const std::vector<std::string>& args,
    const std::vector<std::string>& presence_flags = {});

}  // namespace rt3
