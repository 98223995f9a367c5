// rt3_perfbench: one run of one benchmark workload.
//
//   rt3_perfbench --workload node-burst|rl-lowbatt|kernel-levels
//                 --seed N --seconds S --trace 0|1 [--trace-file PATH]
//
// Prints the workload's metrics for people, then one JSON line (see
// report.hpp).  Exits 0 when a result was printed (its "correct" field
// says whether every check passed), 2 on bad arguments, 1 when the run
// could not complete.
#include <cstdint>
#include <exception>
#include <iostream>
#include <string>

#include "workloads.hpp"

namespace {

int usage(const std::string& error) {
  std::cerr << "rt3_perfbench: " << error << "\n"
            << "usage: rt3_perfbench --workload "
               "node-burst|rl-lowbatt|kernel-levels --seed N --seconds S "
               "--trace 0|1 [--trace-file PATH]\n";
  return 2;
}

/// Whole-string unsigned parse; false on garbage or overflow.
bool parse_u64(const std::string& text, std::uint64_t& out) {
  if (text.empty() || text.find_first_not_of("0123456789") != std::string::npos) {
    return false;
  }
  try {
    out = std::stoull(text);
  } catch (const std::exception&) {
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  perfbench::RunOptions opt;
  std::uint64_t seconds = 0;
  std::uint64_t trace = 2;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      return usage("missing value for " + flag);
    }
    const std::string value = argv[++i];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      if (!parse_u64(value, opt.seed)) {
        return usage("--seed must be a non-negative integer");
      }
      have_seed = true;
    } else if (flag == "--seconds") {
      if (!parse_u64(value, seconds) || seconds < 1 || seconds > 3600) {
        return usage("--seconds must be an integer in [1, 3600]");
      }
    } else if (flag == "--trace") {
      if (!parse_u64(value, trace) || trace > 1) {
        return usage("--trace must be 0 or 1");
      }
    } else if (flag == "--trace-file") {
      opt.trace_path = value;
    } else {
      return usage("unknown flag " + flag);
    }
  }
  if (workload.empty() || !have_seed || seconds == 0 || trace > 1) {
    return usage("--workload, --seed, --seconds and --trace are required");
  }
  opt.seconds = static_cast<double>(seconds);
  opt.traced = trace == 1;

  try {
    perfbench::Result result;
    if (workload == "node-burst") {
      result = perfbench::run_node_burst(opt);
    } else if (workload == "rl-lowbatt") {
      result = perfbench::run_rl_lowbatt(opt);
    } else if (workload == "kernel-levels") {
      result = perfbench::run_kernel_levels(opt);
    } else {
      return usage("unknown workload " + workload);
    }
    std::cout << "workload " << workload << ", seed " << opt.seed << ", "
              << seconds << " s, " << (opt.traced ? "traced" : "untraced")
              << "\n";
    perfbench::print_result(result, opt.traced);
  } catch (const std::exception& e) {
    std::cerr << "rt3_perfbench: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
