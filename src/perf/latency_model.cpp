#include "perf/latency_model.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace rt3 {

const char* exec_mode_name(ExecMode mode) {
  switch (mode) {
    case ExecMode::kDense:
      return "dense";
    case ExecMode::kBlock:
      return "block";
    case ExecMode::kPattern:
      return "pattern";
    case ExecMode::kIrregular:
      return "irregular";
  }
  return "unknown";
}

ExecMode exec_mode_from_name(const std::string& name) {
  for (ExecMode mode : {ExecMode::kDense, ExecMode::kBlock,
                        ExecMode::kPattern, ExecMode::kIrregular}) {
    if (name == exec_mode_name(mode)) {
      return mode;
    }
  }
  throw CheckError("unknown exec mode: " + name);
}

double exec_mode_overhead(ExecMode mode) {
  // The numbers live in the LatencyModelConfig field defaults (block:
  // near-dense inner loops on kept columns; pattern: compiler-scheduled
  // decode, PatDNN-style; irregular: per-element COO indexing).
  return LatencyModelConfig{}.mode_overhead(mode);
}

double LatencyModelConfig::mode_overhead(ExecMode mode) const {
  switch (mode) {
    case ExecMode::kDense:
      return 1.0;
    case ExecMode::kBlock:
      return block_overhead;
    case ExecMode::kPattern:
      return pattern_overhead;
    case ExecMode::kIrregular:
      return irregular_overhead;
  }
  throw CheckError("LatencyModelConfig::mode_overhead: unknown mode");
}

LatencyModel::LatencyModel(LatencyModelConfig config) : config_(config) {
  check(config_.macs_per_cycle > 0.0, "LatencyModel: bad throughput");
}

double LatencyModel::cycles(const ModelSpec& spec, double sparsity,
                            ExecMode mode) const {
  check(sparsity >= 0.0 && sparsity < 1.0, "LatencyModel: bad sparsity");
  const double density = 1.0 - sparsity;
  const double effective_macs =
      spec.dense_macs() * density * config_.mode_overhead(mode);
  return effective_macs / config_.macs_per_cycle + config_.fixed_cycles;
}

double LatencyModel::latency_ms(const ModelSpec& spec, double sparsity,
                                ExecMode mode, double freq_mhz) const {
  check(freq_mhz > 0.0, "LatencyModel: bad frequency");
  // freq in MHz = cycles per millisecond * 1e3; 1 ms has freq_mhz * 1e3
  // kilocycles -> cycles/ms = freq_mhz * 1e3.
  return cycles(spec, sparsity, mode) / (freq_mhz * 1e3);
}

double LatencyModel::sparsity_for_latency(const ModelSpec& spec, ExecMode mode,
                                          double freq_mhz,
                                          double target_ms) const {
  // latency is monotone decreasing in sparsity; bisect.
  double lo = 0.0;
  double hi = 0.99;
  if (latency_ms(spec, lo, mode, freq_mhz) <= target_ms) {
    return 0.0;  // dense already meets the target
  }
  if (latency_ms(spec, hi, mode, freq_mhz) > target_ms) {
    return hi;  // even 99% sparsity misses: return the cap
  }
  for (int iter = 0; iter < 60; ++iter) {
    const double mid = 0.5 * (lo + hi);
    if (latency_ms(spec, mid, mode, freq_mhz) > target_ms) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return hi;
}

void LatencyModel::calibrate(const ModelSpec& spec, double sparsity,
                             ExecMode mode, double freq_mhz,
                             double target_ms) {
  check(target_ms > 0.0, "LatencyModel::calibrate: bad target");
  const double target_cycles = target_ms * freq_mhz * 1e3;
  const double compute_cycles = target_cycles - config_.fixed_cycles;
  check(compute_cycles > 0.0,
        "LatencyModel::calibrate: fixed cost exceeds target");
  const double density = 1.0 - sparsity;
  config_.macs_per_cycle =
      spec.dense_macs() * density * config_.mode_overhead(mode) /
      compute_cycles;
}

LatencyModel paper_transformer_latency() {
  LatencyModel latency;
  latency.calibrate(ModelSpec::paper_transformer(), 0.6426, ExecMode::kBlock,
                    1400.0, 114.59);
  return latency;
}

LatencyModel paper_distilbert_latency() {
  LatencyModel latency;
  latency.calibrate(ModelSpec::paper_distilbert(), 0.5178, ExecMode::kPattern,
                    1400.0, 199.94);
  return latency;
}

SwitchCostModel::SwitchCostModel(SwitchCostConfig config) : config_(config) {
  check(config_.flash_bytes_per_ms > 0.0 && config_.memory_bytes_per_ms > 0.0,
        "SwitchCostModel: bad bandwidth");
}

double SwitchCostModel::full_model_switch_ms(std::int64_t model_bytes) const {
  check(model_bytes >= 0, "SwitchCostModel: negative bytes");
  return static_cast<double>(model_bytes) / config_.flash_bytes_per_ms +
         config_.model_rebuild_ms;
}

double SwitchCostModel::pattern_set_switch_ms(std::int64_t pattern_set_bytes,
                                              std::int64_t num_tiles) const {
  check(pattern_set_bytes >= 0 && num_tiles >= 0,
        "SwitchCostModel: negative payload");
  return static_cast<double>(pattern_set_bytes) / config_.memory_bytes_per_ms +
         static_cast<double>(num_tiles) * config_.per_tile_remap_ms;
}

}  // namespace rt3
