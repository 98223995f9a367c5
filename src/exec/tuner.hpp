// Offline kernel autotuner (`rt3 tune`).
//
// For every (layer, level) of a plan cache the tuner searches the
// KernelOptions space — k_tile x threads over small ladders, 24 points —
// AutoSA-style: it measures a seeded random sample of the grid, fits a
// quadratic latency model to the samples by least squares, re-measures
// the model's top predicted finalists (plus the best sampled point), and
// keeps the fastest.  Winners are serialized as a TuningRecord that
// `rt3 serve --tuning` bakes back into the PlanCache; tuning never
// changes results, only launch shapes, because every config executes the
// same per-lane ascending-k accumulation (see exec/kernels.hpp).
//
// The cost function is injectable: production measures
// MeasuredBackend::time_layer_ms medians; tests inject a deterministic
// synthetic cost, which makes the whole search — sampling, fit,
// finalists, tie-breaks — bit-reproducible from the seed.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "exec/measured_backend.hpp"
#include "exec/plan.hpp"
#include "perf/latency_model.hpp"

namespace rt3 {

/// One (layer, level)'s tuning result.
struct TuningEntry {
  std::int64_t layer = 0;
  std::int64_t level = 0;
  KernelOptions options;
  /// Fitted-model prediction for the winner (ms), floored at 0.
  double predicted_ms = 0.0;
  /// Winner's re-measured cost (ms) — the selection criterion.
  double measured_ms = 0.0;
};

/// A full tuning run, serializable as a small line-oriented text file
/// headed "rt3-tuning v2"; parse rejects any other version by name.
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
  /// Random grid points measured to fit the latency model (clamped to the
  /// grid size).
  std::int64_t samples = 24;
  /// Top model-predicted configs re-measured before picking the winner.
  std::int64_t finalists = 4;
  /// Cost measurements per candidate; the median is used.
  std::int64_t repeats = 3;
  /// Batch size to tune at.
  std::int64_t batch = 1;
  /// Seed for candidate sampling (the only randomness in the search).
  std::uint64_t seed = 42;
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

  /// Injected-cost constructor (tests, bit-determinism): searches a
  /// layers x levels space with `cost` as ground truth.
  Autotuner(TunerConfig config, ExecMode mode, std::int64_t layers,
            std::int64_t levels, CostFn cost);

  /// Runs the search over every (layer, level); deterministic given the
  /// seed and a deterministic cost function.
  TuningRecord tune();

  /// The candidate grid the search draws from (public for tests).
  static std::vector<KernelOptions> candidate_grid();

 private:
  TuningEntry tune_one(std::int64_t layer, std::int64_t level, Rng& rng);
  double median_cost(std::int64_t layer, std::int64_t level,
                     const KernelOptions& options);

  TunerConfig config_;
  ExecMode mode_ = ExecMode::kDense;
  std::int64_t layers_ = 0;
  std::int64_t levels_ = 0;
  CostFn cost_;
};

}  // namespace rt3
