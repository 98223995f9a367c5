// Execution backends: how the Server turns a batch into latency.
//
// The paper's claim that patterned sparsity "executes with near-dense
// regularity" was modeled analytically until now (LatencyModel).  This
// interface makes the execution path swappable: AnalyticBackend keeps the
// modeled path bit-for-bit, MeasuredBackend actually runs the pruned
// linear layers as multi-threaded cache-tiled kernels and reports wall
// time.  The Server calls activate_level() at every drain-then-switch
// point so a backend with precompiled per-level plans (PlanCache) only
// swaps plan pointers — mirroring the paper's ms-scale pattern-set switch.
// Backends hold no observer: the serving loop builds each batch's trace
// span from the BatchExecution run_batch returns.
#pragma once

#include <cstdint>
#include <string>

namespace rt3 {

class TraceRecorder;

/// What executing one batch cost.
struct BatchExecution {
  /// Virtual-time batch latency the Server accounts (device-scale ms).
  double latency_ms = 0.0;
  /// Host wall time actually spent inside kernels (0 for analytic).
  double kernel_wall_ms = 0.0;
};

/// One execution path under the Server.  Implementations must tolerate
/// activate_level() being called repeatedly with the same level (no-op).
class ExecutionBackend {
 public:
  virtual ~ExecutionBackend();

  virtual const char* name() const = 0;

  /// Executes (or models) one batch at a governor-level position.
  virtual BatchExecution run_batch(std::int64_t batch_size,
                                   std::int64_t level_pos) = 0;

  /// Makes `level_pos` the active execution configuration (e.g. swaps the
  /// PlanCache's active plan set).  Returns the host wall ms the swap took.
  virtual double activate_level(std::int64_t level_pos) = 0;

  /// Unused: backends emit no trace events.  The serving loop records
  /// each batch's span itself (with BatchExecution::kernel_wall_ms as an
  /// arg when the recorder records wall time).  Kept as a no-op only
  /// because perfbench's TracedBackend still overrides it; delete both
  /// together at the next benchmark change.
  virtual void set_trace(TraceRecorder* trace, std::int64_t lane) {
    (void)trace;
    (void)lane;
  }
};

/// Which backend a serve session should execute with.
enum class ExecBackendKind : std::uint8_t {
  kAnalytic,  // LatencyModel-modeled batch latency (the historical path)
  kMeasured,  // kernel-measured wall time drives the virtual clock
};

const char* exec_backend_name(ExecBackendKind kind);
/// Parses "analytic" / "measured"; throws CheckError otherwise.
ExecBackendKind exec_backend_from_name(const std::string& name);

}  // namespace rt3
