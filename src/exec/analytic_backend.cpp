#include "exec/analytic_backend.hpp"

#include <utility>

#include "common/check.hpp"

namespace rt3 {

AnalyticBackend::AnalyticBackend(const LatencyModel& latency,
                                 const ModelSpec& spec, ExecMode mode,
                                 std::vector<double> freqs_mhz,
                                 const std::vector<double>& sparsities)
    : fixed_cycles_(latency.config().fixed_cycles),
      freqs_mhz_(std::move(freqs_mhz)) {
  check(!freqs_mhz_.empty(), "AnalyticBackend: no levels");
  check(freqs_mhz_.size() == sparsities.size(),
        "AnalyticBackend: one sparsity per level required");
  cycles_one_.reserve(sparsities.size());
  for (const double sparsity : sparsities) {
    cycles_one_.push_back(latency.cycles(spec, sparsity, mode));
  }
}

double AnalyticBackend::batch_latency_ms(std::int64_t batch_size,
                                         std::int64_t level_pos) const {
  check(batch_size >= 1, "AnalyticBackend: empty batch");
  check(level_pos >= 0 && level_pos < num_levels(),
        "AnalyticBackend: level position out of range");
  const auto pos = static_cast<std::size_t>(level_pos);
  const double batch_cycles =
      fixed_cycles_ +
      (cycles_one_[pos] - fixed_cycles_) * static_cast<double>(batch_size);
  return batch_cycles / (freqs_mhz_[pos] * 1000.0);
}

BatchExecution AnalyticBackend::run_batch(std::int64_t batch_size,
                                          std::int64_t level_pos) {
  return {batch_latency_ms(batch_size, level_pos), 0.0};
}

double AnalyticBackend::activate_level(std::int64_t level_pos) {
  check(level_pos >= 0 && level_pos < num_levels(),
        "AnalyticBackend: level position out of range");
  return 0.0;  // nothing to swap: the model is level-agnostic
}

}  // namespace rt3
