// The benchmark's three workloads (see README.md and manifest.json in
// this directory for what each stresses and why).
#pragma once

#include <cstdint>
#include <string>

#include "report.hpp"
#include "spans.hpp"

namespace perfbench {

struct RunOptions {
  /// Every input (traffic, weights, activations, RL init) derives from it.
  std::uint64_t seed = 1;
  /// Length of the timed loop.
  double seconds = 10.0;
  /// Traced run: decorators record spans and the per-layer set is reported.
  bool traced = false;
  /// File the traced run's spans are written to ("" = not written).
  std::string trace_path;
};

Result run_node_burst(const RunOptions& options);
Result run_rl_lowbatt(const RunOptions& options);
Result run_kernel_levels(const RunOptions& options);

/// Independent 64-bit seed for input stream `stream` of run seed `seed`
/// (splitmix64 finalizer), so no two inputs share a generator state.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream);

/// Writes the recorder's kept spans as a Chrome trace to `path` (no-op
/// for an empty path) and notes it in the result.
void write_trace(const SpanRecorder& spans, const std::string& path,
                 Result& result);

}  // namespace perfbench
