// Measured execution backend: batches actually run through the pruned
// linear layers as multi-threaded cache-tiled kernels, and the measured
// host wall time — scaled to device time — drives the Server's virtual
// clock in place of the analytic LatencyModel (ROADMAP "Real execution
// backend").
//
// All per-level execution plans are pre-built in a PlanCache at
// construction; activate_level() at a drain-then-switch point only swaps
// plan pointers, mirroring the paper's ms-scale pattern-set switch.
#pragma once

#include <cstdint>
#include <vector>

#include "exec/backend.hpp"
#include "exec/kernels.hpp"
#include "exec/plan.hpp"
#include "nn/linear.hpp"
#include "serve/thread_pool.hpp"
#include "sparse/pattern.hpp"

namespace rt3 {

struct MeasuredBackendConfig {
  /// Which kernel family executes the layers.
  ExecMode mode = ExecMode::kPattern;
  /// Kernel worker threads (the backend owns its pool).  Must be >= 1;
  /// non-positive values are rejected at construction rather than
  /// silently clamped.
  std::int64_t threads = 2;
  /// Pin worker i to core i % hardware_concurrency (Linux best-effort)
  /// so latency samples stop paying migration jitter.
  bool pin_threads = true;
  /// Backend-wide kernel launch defaults; a plan's autotuned options
  /// (PlanCache::apply_tuning) take precedence per (layer, level).
  KernelOptions kernel;
  /// Activation columns contributed by one request in a batch.
  std::int64_t cols_per_request = 4;
  /// Largest batch the pre-generated activation buffers support.
  std::int64_t max_batch = 64;
  /// Row-block count for kBlock plans (non-divisible layers fall back
  /// to one block).
  std::int64_t bp_blocks = 4;
  /// Host-wall-ms -> virtual-device-ms factor (see auto_scale()).
  double latency_scale = 1.0;
  /// Scheduling-noise guard: once auto_scale() has established a
  /// per-item baseline, a single batch's wall time is clamped to
  /// `outlier_clamp` x baseline x batch_size BEFORE it becomes virtual
  /// device time (a descheduled kernel thread is host noise, not device
  /// work).  kernel_wall_ms stays raw.  <= 0 disables the clamp.
  double outlier_clamp = 8.0;
  /// Additionally scale virtual latency by fastest_freq / level_freq so
  /// slower governor levels take proportionally longer, emulating DVFS
  /// that the host cannot perform.
  bool scale_with_freq = true;
  /// Seed for the deterministic activation buffers.
  std::uint64_t input_seed = 17;
};

class MeasuredBackend : public ExecutionBackend {
 public:
  /// `backbone_masks` as in PlanCache (empty = dense backbone).  `sets`
  /// holds one PatternSet per governor level for kPattern mode; for other
  /// modes it may be empty.  `level_freqs_mhz` are the ladder frequencies,
  /// fast -> slow, and determine the level count.
  MeasuredBackend(MeasuredBackendConfig config, std::vector<Linear*> layers,
                  const std::vector<Tensor>& backbone_masks,
                  const std::vector<PatternSet>& sets,
                  std::vector<double> level_freqs_mhz);

  const char* name() const override { return "measured"; }

  BatchExecution run_batch(std::int64_t batch_size,
                           std::int64_t level_pos) override;
  double activate_level(std::int64_t level_pos) override;

  /// Runs one layer's ACTIVE plan on an explicit activation — the test
  /// hook for kernel-vs-reference bitwise checks.  Honors the plan's
  /// autotuned options when present.
  Tensor run_layer(std::int64_t layer, const Tensor& x);

  /// Wall ms of one (layer, level) plan at batch size `batch` under
  /// EXPLICIT kernel options (any baked tuning is ignored) — the
  /// autotuner's measurement hook.  Does not disturb the active level or
  /// the virtual clock.
  double time_layer_ms(std::int64_t layer, std::int64_t level,
                       std::int64_t batch, const KernelOptions& options);

  /// Installs a tuning record into the plan cache; returns entries applied.
  std::int64_t apply_tuning(const TuningRecord& record) {
    return plans_.apply_tuning(record);
  }

  /// Measures a batch of 1 at level 0 (median of a few repeats) and sets
  /// latency_scale so it maps to `target_ms` of virtual device time.
  void auto_scale(double target_ms);

  const PlanCache& plans() const { return plans_; }
  const MeasuredBackendConfig& config() const { return config_; }
  std::int64_t num_levels() const { return plans_.num_levels(); }
  /// Host wall ms spent inside kernels since construction.
  double total_kernel_wall_ms() const { return total_kernel_wall_ms_; }

 private:
  /// First `n` activation columns of layer `li`'s master input buffer.
  Tensor batch_input(std::int64_t li, std::int64_t n) const;
  /// Runs every layer once at activation width `n`; returns kernel wall ms.
  double run_layers_wall_ms(std::int64_t n);

  MeasuredBackendConfig config_;
  std::vector<Linear*> layers_;
  std::vector<double> freqs_;
  PlanCache plans_;
  ThreadPool pool_;
  std::vector<Tensor> inputs_;  // per layer, [cols x max_batch*cols_per_request]
  double total_kernel_wall_ms_ = 0.0;
  /// Level-0 batch-of-1 wall-time baseline from auto_scale (0 = unset).
  double baseline_item_wall_ms_ = 0.0;
  float sink_ = 0.0F;  // keeps kernel outputs observable
};

}  // namespace rt3
