// Analytic execution backend: the historical LatencyModel path behind the
// ExecutionBackend interface.  The Server owns one of these by default,
// so attaching an explicit AnalyticBackend is bit-identical to attaching
// nothing — which is exactly the compatibility test in test_exec_backend.
#pragma once

#include <cstdint>
#include <vector>

#include "exec/backend.hpp"
#include "perf/latency_model.hpp"
#include "perf/model_spec.hpp"

namespace rt3 {

class AnalyticBackend : public ExecutionBackend {
 public:
  /// `freqs_mhz[i]` / `sparsities[i]` describe governor-level position i
  /// (fast -> slow).  `sparsities` must already reflect the serving policy
  /// (e.g. a hardware-only baseline repeats the level-0 sparsity).  Each
  /// level's one-request cycle count is computed here, once, so a
  /// sparsity outside [0, 1) throws at construction.
  AnalyticBackend(const LatencyModel& latency, const ModelSpec& spec,
                  ExecMode mode, std::vector<double> freqs_mhz,
                  const std::vector<double>& sparsities);

  const char* name() const override { return "analytic"; }

  /// One runtime setup per batch, MAC work per request (the Server's
  /// amortization rule).  O(1): two range checks and a table read.
  double batch_latency_ms(std::int64_t batch_size,
                          std::int64_t level_pos) const;

  BatchExecution run_batch(std::int64_t batch_size,
                           std::int64_t level_pos) override;
  double activate_level(std::int64_t level_pos) override;

  std::int64_t num_levels() const {
    return static_cast<std::int64_t>(freqs_mhz_.size());
  }

 private:
  double fixed_cycles_;
  std::vector<double> freqs_mhz_;
  /// cycles_one_[i] = LatencyModel::cycles(spec, sparsities[i], mode): one
  /// request's cycles at level position i, fixed setup included.
  std::vector<double> cycles_one_;
};

}  // namespace rt3
