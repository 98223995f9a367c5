#include "decorators.hpp"

#include <utility>

#include "clock.hpp"
#include "common/check.hpp"

namespace perfbench {
namespace {

const rt3::Governor& checked_ladder(
    const std::shared_ptr<rt3::GovernorPolicy>& policy) {
  rt3::check(policy != nullptr, "TracedPolicy: null policy");
  return policy->ladder();
}

}  // namespace

TracedPolicy::TracedPolicy(std::shared_ptr<rt3::GovernorPolicy> inner,
                           SpanRecorder* spans)
    : rt3::GovernorPolicy(checked_ladder(inner)),
      inner_(std::move(inner)),
      spans_(spans) {}

std::int64_t TracedPolicy::decide(const rt3::GovernorObservation& obs) {
  std::int64_t pos = 0;
  if (spans_ == nullptr) {
    pos = inner_->decide(obs);
  } else {
    const double t0 = host_ms();
    pos = inner_->decide(obs);
    spans_->record(SpanKind::kDecide, t0, host_ms());
  }
  ++decides_;
  if (last_pos_ >= 0 && pos != last_pos_) {
    ++level_changes_;
  }
  last_pos_ = pos;
  return pos;
}

void TracedPolicy::observe_batch(const rt3::BatchFeedback& feedback) {
  if (spans_ == nullptr) {
    inner_->observe_batch(feedback);
    return;
  }
  const double t0 = host_ms();
  inner_->observe_batch(feedback);
  spans_->record(SpanKind::kObserveBatch, t0, host_ms());
}

void TracedPolicy::reset() {
  last_pos_ = -1;
  inner_->reset();
}

rt3::BatchExecution TracedBackend::run_batch(std::int64_t batch_size,
                                             std::int64_t level_pos) {
  ++run_batch_calls_;
  if (spans_ == nullptr) {
    return inner_.run_batch(batch_size, level_pos);
  }
  const double t0 = host_ms();
  const rt3::BatchExecution exec = inner_.run_batch(batch_size, level_pos);
  spans_->record(SpanKind::kRunBatch, t0, host_ms());
  return exec;
}

double TracedBackend::activate_level(std::int64_t level_pos) {
  ++activate_calls_;
  if (spans_ == nullptr) {
    return inner_.activate_level(level_pos);
  }
  const double t0 = host_ms();
  const double swap_ms = inner_.activate_level(level_pos);
  spans_->record(SpanKind::kActivateLevel, t0, host_ms());
  return swap_ms;
}

}  // namespace perfbench
