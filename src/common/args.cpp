#include "common/args.hpp"

#include "common/check.hpp"
#include "common/text_fields.hpp"

namespace rt3 {

std::vector<std::string> split_flag_args(int argc, char** argv, int begin) {
  std::vector<std::string> args;
  for (int i = begin; i < argc; ++i) {
    const std::string arg = argv[i];
    const std::size_t eq = arg.find('=');
    if (arg.rfind("--", 0) == 0 && eq != std::string::npos) {
      args.push_back(arg.substr(0, eq));
      args.push_back(arg.substr(eq + 1));
    } else {
      args.push_back(arg);
    }
  }
  return args;
}

namespace {

/// Pointer to the value token after `flag`, nullptr when absent.
const std::string* find_value(const std::vector<std::string>& args,
                              const std::string& flag) {
  for (std::size_t i = 0; i + 1 < args.size(); ++i) {
    if (args[i] == flag) {
      return &args[i + 1];
    }
  }
  return nullptr;
}

}  // namespace

double arg_double(const std::vector<std::string>& args,
                  const std::string& flag, double fallback) {
  const std::string* value = find_value(args, flag);
  return value != nullptr ? parse_finite(flag, *value) : fallback;
}

std::int64_t arg_int(const std::vector<std::string>& args,
                     const std::string& flag, std::int64_t fallback) {
  const std::string* value = find_value(args, flag);
  return value != nullptr ? parse_int(flag, *value) : fallback;
}

std::string arg_string(const std::vector<std::string>& args,
                       const std::string& flag, const std::string& fallback) {
  const std::string* value = find_value(args, flag);
  return value != nullptr ? *value : fallback;
}

bool arg_present(const std::vector<std::string>& args,
                 const std::string& flag) {
  for (const std::string& a : args) {
    if (a == flag) {
      return true;
    }
  }
  return false;
}

void reject_unknown_flags(const std::vector<std::string>& args,
                          const std::vector<std::string>& known,
                          const std::string& who) {
  for (const std::string& a : args) {
    if (a.rfind("--", 0) == 0) {
      check(arg_present(known, a), who + ": unknown flag " + a);
    }
  }
}

std::vector<std::string> positional_args(
    const std::vector<std::string>& args,
    const std::vector<std::string>& presence_flags) {
  // A token is positional when it is not a flag and not the value slot of
  // the (value-taking) flag right before it.
  const auto is_presence_flag = [&](const std::string& token) {
    for (const std::string& flag : presence_flags) {
      if (token == flag) {
        return true;
      }
    }
    return false;
  };
  std::vector<std::string> positionals;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i].rfind("--", 0) == 0) {
      continue;
    }
    if (i > 0 && args[i - 1].rfind("--", 0) == 0 &&
        !is_presence_flag(args[i - 1])) {
      continue;  // value of the preceding flag
    }
    positionals.push_back(args[i]);
  }
  return positionals;
}

}  // namespace rt3
