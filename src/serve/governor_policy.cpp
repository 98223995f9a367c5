#include "serve/governor_policy.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace rt3 {

double deadline_pressure(double now_ms, double release_at_ms,
                         double max_wait_ms) {
  if (!(release_at_ms < std::numeric_limits<double>::infinity())) {
    return 0.0;
  }
  if (max_wait_ms <= 0.0) {
    return 1.0;
  }
  return std::clamp(1.0 - (release_at_ms - now_ms) / max_wait_ms, 0.0, 1.0);
}

double GovernorPolicy::drain_lag_ms(std::int64_t active_pos,
                                    double frac_before, double frac_after,
                                    double lat_ms) const {
  // Historical drain-then-switch bookkeeping: if this batch's linear drain
  // carried the battery across the ladder threshold for `active_pos`, the
  // switch that fires at the batch boundary has been lagging since the
  // crossing instant — interpolate it inside the drain.
  if (!(frac_before > frac_after)) {
    return -1.0;
  }
  if (ladder_.level_position(frac_after) == active_pos) {
    return -1.0;
  }
  const double threshold = ladder_.next_step_down(frac_before);
  return lat_ms * (threshold - frac_after) / (frac_before - frac_after);
}

AdaptiveMarginPolicy::AdaptiveMarginPolicy(Governor ladder)
    : AdaptiveMarginPolicy(std::move(ladder), Config()) {}

AdaptiveMarginPolicy::AdaptiveMarginPolicy(Governor ladder, Config config)
    : GovernorPolicy(std::move(ladder)), config_(config) {}

double AdaptiveMarginPolicy::shrink_margin(double configured_margin) const {
  // Self-sizing window: "threshold within N batches of drain" in battery
  // fraction units.  Never narrower than the configured margin (the
  // operator's floor), never wider than the hard cap.
  const double adaptive =
      std::min(config_.batches_of_headroom * drain_ewma_, config_.max_margin);
  return std::max(adaptive, configured_margin);
}

void AdaptiveMarginPolicy::observe_batch(const BatchOutcome& feedback) {
  if (drain_ewma_ <= 0.0) {
    drain_ewma_ = feedback.drain_fraction;
    return;
  }
  drain_ewma_ += config_.drain_alpha * (feedback.drain_fraction - drain_ewma_);
}

GovernorHandle::GovernorHandle(std::shared_ptr<GovernorPolicy> policy)
    : policy_(std::move(policy)) {
  if (!policy_) {
    throw std::invalid_argument("GovernorHandle: policy must not be null");
  }
}

}  // namespace rt3
