// Analytic inference-latency and reconfiguration-switch-cost models.
//
// The paper observes pure 1/f latency scaling across DVFS levels
// (Table II: 114.59 ms at F-mode -> 160.43 ms at N-mode -> 200.54 ms at
// E-mode, exactly the frequency ratios), so latency is modeled as
// cycles / frequency with cycles determined by effective (post-pruning)
// MACs, an execution-mode overhead factor, and a fixed runtime cost.
#pragma once

#include <cstdint>
#include <string>

#include "perf/model_spec.hpp"

namespace rt3 {

/// How a pruned matrix is executed — determines indexing overhead.
enum class ExecMode : std::uint8_t {
  kDense,      // no pruning: full dense GEMM
  kBlock,      // block-structured rows/cols: regular, negligible overhead
  kPattern,    // pattern sets with compiler support (PatDNN-style)
  kIrregular,  // COO-indexed irregular sparsity
};

/// Stable text name of a mode ("dense" / "block" / "pattern" /
/// "irregular") — used by the CLI and the tuning-record format.
const char* exec_mode_name(ExecMode mode);
/// Parses exec_mode_name output; throws CheckError otherwise.
ExecMode exec_mode_from_name(const std::string& name);

/// Default cycle-level overhead multipliers per execution mode.  Block
/// pruning keeps dense inner loops; pattern execution pays a small decode
/// cost; irregular sparsity pays heavily for per-element indices (the
/// paper's Challenge 1).  These seed LatencyModelConfig; a Calibrator fit
/// (src/exec/calibrator.hpp) replaces them with measured ratios.
double exec_mode_overhead(ExecMode mode);

struct LatencyModelConfig {
  /// Effective parallel MAC throughput of the target core cluster.
  double macs_per_cycle = 8.0;
  /// Cycles of fixed per-inference runtime overhead (scheduling, IO).
  double fixed_cycles = 2.0e6;
  /// Per-mode overhead multipliers (dense is the 1.0 anchor); defaults
  /// mirror exec_mode_overhead().
  double block_overhead = 1.02;
  double pattern_overhead = 1.08;
  double irregular_overhead = 1.65;

  double mode_overhead(ExecMode mode) const;
};

/// cycles -> milliseconds at a DVFS frequency.
class LatencyModel {
 public:
  LatencyModel() = default;
  explicit LatencyModel(LatencyModelConfig config);

  /// Execution cycles for one inference at the given overall weight
  /// sparsity (fraction of zero weights, 0 = dense).
  double cycles(const ModelSpec& spec, double sparsity, ExecMode mode) const;

  /// Latency in milliseconds at `freq_mhz`.
  double latency_ms(const ModelSpec& spec, double sparsity, ExecMode mode,
                    double freq_mhz) const;

  /// Sparsity needed to hit `target_ms` at `freq_mhz` (bisection; returns
  /// a value clamped to [0, 0.99]).  This drives the paper's search-space
  /// shrinking: "predict the N sparsity ratios nearest to T".
  double sparsity_for_latency(const ModelSpec& spec, ExecMode mode,
                              double freq_mhz, double target_ms) const;

  /// Calibrates macs_per_cycle so that (spec, sparsity, mode) at freq_mhz
  /// lands exactly on target_ms.  The paper anchors below call it once.
  void calibrate(const ModelSpec& spec, double sparsity, ExecMode mode,
                 double freq_mhz, double target_ms);

  const LatencyModelConfig& config() const { return config_; }

 private:
  LatencyModelConfig config_;
};

/// The Transformer anchor (paper Table II): the 64.26%-sparse BP-only
/// model runs block-executed in 114.59 ms at F-mode (1400 MHz).
LatencyModel paper_transformer_latency();

/// The DistilBERT anchor: the paper's RTE M1 (51.78% sparsity,
/// pattern-executed) meets T = 200 ms at F-mode (1400 MHz) with 199.94 ms.
LatencyModel paper_distilbert_latency();

struct SwitchCostConfig {
  /// Flash/storage read bandwidth for full-model reloads (bytes/ms).
  double flash_bytes_per_ms = 2.2e3;
  /// Off-chip memory bandwidth for pattern-set swaps (bytes/ms).
  double memory_bytes_per_ms = 4.0e5;
  /// Per-tile cost of re-binding pattern assignments (ms).
  double per_tile_remap_ms = 1.6e-3;
  /// Fixed cost of rebuilding a full model after reload (ms).
  double model_rebuild_ms = 6.0e3;
};

/// Models the two reconfiguration strategies of Table III: the accuracy
/// upper-bound baseline must reload a whole model (tens of seconds); RT3
/// swaps pattern sets over the resident backbone (milliseconds).
class SwitchCostModel {
 public:
  SwitchCostModel() = default;
  explicit SwitchCostModel(SwitchCostConfig config);

  /// Full model switch: read `model_bytes` from flash + rebuild.
  double full_model_switch_ms(std::int64_t model_bytes) const;

  /// RT3 pattern-set switch: transfer the set bitmaps + per-tile
  /// assignment ids and re-bind tiles.
  double pattern_set_switch_ms(std::int64_t pattern_set_bytes,
                               std::int64_t num_tiles) const;

  const SwitchCostConfig& config() const { return config_; }

 private:
  SwitchCostConfig config_;
};

}  // namespace rt3
