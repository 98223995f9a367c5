// Offline kernel autotuner (`rt3 tune`).
//
// For every (layer, level) of a plan cache the tuner measures every point
// of its mode's KernelOptions grid and keeps the fastest.  k_tile is the
// only option and only the dense kernel reads it, so the dense grid is
// the k_tile ladder (5 points) and the block, pattern and COO grids are
// the one default launch, measured for its cost.  Winners are serialized
// as a TuningRecord that `rt3 serve --tuning` bakes back into the
// PlanCache; tuning never changes results, because every config executes
// the same per-lane ascending-k accumulation (see exec/kernels.hpp).
//
// The cost function is injectable: production measures
// MeasuredBackend::time_layer_ms medians; tests inject a deterministic
// synthetic cost, under which the search is an exact argmin over the
// grid (ties keep the earlier grid point).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "exec/measured_backend.hpp"
#include "exec/plan.hpp"
#include "perf/latency_model.hpp"

namespace rt3 {

/// One (layer, level)'s tuning result.
struct TuningEntry {
  std::int64_t layer = 0;
  std::int64_t level = 0;
  KernelOptions options;
  /// Winner's measured cost (ms) — the selection criterion.
  double measured_ms = 0.0;
};

/// A full tuning run, serializable as a small line-oriented text file
/// headed "rt3-tuning v4"; parse rejects any other version by name, a
/// repeated (layer, level) and any token after the last entry.
/// Doubles are written with 17 significant digits, so
/// parse(serialize(r)) round-trips bit-exactly and re-serialization is
/// byte-identical (the CI smoke check).
struct TuningRecord {
  ExecMode mode = ExecMode::kDense;
  /// Batch size the costs were measured at.
  std::int64_t batch = 1;
  /// SIMD ISA active during tuning (informational; records tuned under a
  /// different ISA still apply, the knobs are ISA-independent).
  std::string isa = "scalar";
  std::vector<TuningEntry> entries;

  std::string serialize() const;
  static TuningRecord parse(const std::string& text);
  void save(const std::string& path) const;
  static TuningRecord load(const std::string& path);
};

struct TunerConfig {
  /// Cost measurements per candidate; the median is used.
  std::int64_t repeats = 3;
  /// Batch size to tune at.
  std::int64_t batch = 1;
};

class Autotuner {
 public:
  /// Candidate cost in ms; lower is better.
  using CostFn = std::function<double(
      std::int64_t layer, std::int64_t level, const KernelOptions& options)>;

  /// Tunes `backend`'s plans; cost = median of `repeats` wall-time
  /// measurements of each candidate (one warm-up run discarded).  The
  /// backend must outlive the tuner.
  Autotuner(TunerConfig config, MeasuredBackend& backend);

  /// Injected-cost constructor (tests): searches a layers x levels space
  /// with `cost` as ground truth.
  Autotuner(TunerConfig config, ExecMode mode, std::int64_t layers,
            std::int64_t levels, CostFn cost);

  /// Measures the whole grid for every (layer, level); deterministic
  /// given a deterministic cost function.
  TuningRecord tune();

  /// The points `mode`'s search measures, in tie-break order (public for
  /// tests).
  static std::vector<KernelOptions> candidate_grid(ExecMode mode);

 private:
  TuningEntry tune_one(std::int64_t layer, std::int64_t level,
                       const std::vector<KernelOptions>& grid);
  double median_cost(std::int64_t layer, std::int64_t level,
                     const KernelOptions& options);

  TunerConfig config_;
  ExecMode mode_ = ExecMode::kDense;
  std::int64_t layers_ = 0;
  std::int64_t levels_ = 0;
  CostFn cost_;
};

}  // namespace rt3
