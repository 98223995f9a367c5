// The one per-batch record of the serving loop.
//
// At every executed batch the loop builds ONE BatchOutcome and hands the
// same object to every consumer of per-batch facts: the governor policy
// (GovernorPolicy::observe_batch, its only outcome channel), the
// telemetry sampler (TelemetrySampler::on_batch), and the SLO monitor
// (SloMonitor::observe).  Consumers read the fields they need; none may
// feed anything back into the loop except the policy.
#pragma once

#include <cstdint>

namespace rt3 {

struct BatchOutcome {
  /// Model the batch ran for (0 on a single-model Server).
  std::int64_t model_id = 0;
  double start_ms = 0.0;
  double end_ms = 0.0;
  std::int64_t batch_size = 0;
  /// Governor-level position the batch ran at.
  std::int64_t level_pos = 0;
  double energy_mj = 0.0;
  /// Battery fraction AFTER the batch's drain.
  double battery_fraction = 0.0;
  /// Battery fraction this one batch consumed (>= 0).
  double drain_fraction = 0.0;
  /// The model's pending queue depth after the batch was popped.
  std::int64_t queue_depth = 0;
  /// Pending across ALL models (== queue_depth with one model).
  std::int64_t node_queue_depth = 0;
  /// Deadline misses among the batch's requests.
  std::int64_t misses = 0;
  /// Sum of queue-to-completion latency over the batch's requests.
  double latency_sum_ms = 0.0;
};

}  // namespace rt3
