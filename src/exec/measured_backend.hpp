// Measured execution backend: batches actually run through the pruned
// linear layers as multi-threaded cache-tiled kernels, and the measured
// host wall time — scaled to device time — drives the Server's virtual
// clock in place of the analytic LatencyModel (ROADMAP "Real execution
// backend").
//
// All per-level execution plans are pre-built in a PlanCache at
// construction; activate_level() at a drain-then-switch point only swaps
// plan pointers, mirroring the paper's ms-scale pattern-set switch.  A
// batch allocates and copies nothing: each layer reads its activation in
// place from a master buffer and writes a per-layer output workspace,
// both sized for max_batch at construction and both starting on a 64-byte
// cache line (exec/aligned_buffer.hpp), so a 16-lane load or store at a
// row start never straddles two lines.  A batch is ONE launch: every
// layer's kernel call goes into a call list sized at construction and
// runs through the many-call plan_gemm_into, each layer split over the
// pool as its work sets it, exactly as it would be alone, so the workers
// wake at most once per batch, not once per layer, and a batch of small
// layers runs on the calling thread alone.  The layers are independent
// (each reads its own master), so there is no barrier between them.
// time_layer_ms, the autotuner's hook, still times one layer with its
// own launch.
#pragma once

#include <cstdint>
#include <vector>

#include "exec/aligned_buffer.hpp"
#include "exec/backend.hpp"
#include "exec/kernels.hpp"
#include "exec/plan.hpp"
#include "exec/thread_pool.hpp"
#include "nn/linear.hpp"
#include "sparse/pattern.hpp"

namespace rt3 {

struct MeasuredBackendConfig {
  /// Largest accepted `threads`.
  static constexpr std::int64_t kMaxThreads = 256;
  /// The pool that, with the calling thread, fills the host's cores:
  /// max(1, hardware_concurrency - 1) workers, at most kMaxThreads.
  static std::int64_t default_threads();
  /// Which kernel family executes the layers.
  ExecMode mode = ExecMode::kPattern;
  /// Kernel pool workers; a split launch runs on the calling thread plus
  /// these (exec/kernels.hpp), and idle workers sleep.  The backend owns
  /// its pool, pinning worker i to core i % hardware_concurrency, Linux
  /// best-effort, so latency samples stop paying migration jitter.  Must
  /// be in [1, kMaxThreads]; other values are rejected at construction
  /// rather than clamped.
  std::int64_t threads = default_threads();
  /// Backend-wide kernel launch defaults; a plan's autotuned options
  /// (PlanCache::apply_tuning) take precedence per (layer, level).
  KernelOptions kernel;
  /// Activation columns contributed by one request in a batch.
  std::int64_t cols_per_request = 4;
  /// Largest batch the pre-generated activation buffers support.
  std::int64_t max_batch = 64;
  /// Host-wall-ms -> virtual-device-ms factor (see auto_scale()).
  double latency_scale = 1.0;
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
  /// time_layer_ms on the calling thread alone (no pool), for ratios
  /// that scheduling must not pollute (the kernel speedup gate).
  double time_layer_on_caller_ms(std::int64_t layer, std::int64_t level,
                                 std::int64_t batch,
                                 const KernelOptions& options);

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

  /// The activation a batch of `batch` requests multiplies layer `layer`
  /// by: the first cols x n floats of the layer's master buffer read as a
  /// row-major [cols x n] matrix, n = batch * cols_per_request.  Every
  /// width reads a contiguous prefix, so no batch copies or packs its
  /// input and a narrow batch touches only its own few pages.  `data` is
  /// 64-byte aligned.
  ActivationView batch_input(std::int64_t layer, std::int64_t batch) const;
  /// Copy of the output the last kernel call (run_batch or time_layer_ms)
  /// wrote to layer `layer`'s workspace — the test hook for bitwise
  /// checks of the allocation-free batch path.
  Tensor last_output(std::int64_t layer) const;

 private:
  /// Runs every layer once on a batch into its workspace, in one
  /// launch; returns the wall ms of the kernel calls alone.
  double run_layers_wall_ms(std::int64_t batch);
  /// Wall ms of one (layer, level) plan run on a batch into the layer's
  /// workspace over `pool` (nullptr: the calling thread alone).
  double time_into_workspace(std::int64_t layer, std::int64_t level,
                             std::int64_t batch, const KernelOptions& options,
                             ThreadPool* pool);

  MeasuredBackendConfig config_;
  std::vector<Linear*> layers_;
  std::vector<double> freqs_;
  PlanCache plans_;
  ThreadPool pool_;
  /// Per layer, cols x max_batch * cols_per_request floats (see
  /// batch_input).
  std::vector<AlignedFloats> inputs_;
  /// Per-layer output workspace (rows x max_n floats) and the width the
  /// last kernel call wrote there.
  std::vector<AlignedFloats> outputs_;
  std::vector<std::int64_t> output_cols_;
  /// One kernel call per layer, refilled by every batch.
  std::vector<GemmCall> calls_;
  double total_kernel_wall_ms_ = 0.0;
  /// Level-0 batch-of-1 wall-time baseline from auto_scale (0 = unset).
  double baseline_item_wall_ms_ = 0.0;
  float sink_ = 0.0F;  // keeps kernel outputs observable
};

}  // namespace rt3
