// Forwarding decorators over the library's public virtual seams.  They
// time each call from outside the library and record it as a child span;
// every call, argument and return value passes through unchanged, so a
// decorated session's stats are byte-identical to an undecorated one.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "exec/backend.hpp"
#include "serve/governor_policy.hpp"
#include "spans.hpp"

namespace perfbench {

/// Wraps a GovernorPolicy; times decide() and observe_batch().  The other
/// hooks (shrink_margin, drain_lag_ms, reset) forward untimed, so their
/// cost stays in the serve loop's self time.  `spans` may be null
/// (forward only).
class TracedPolicy final : public rt3::GovernorPolicy {
 public:
  TracedPolicy(std::shared_ptr<rt3::GovernorPolicy> inner,
               SpanRecorder* spans);

  std::string name() const override { return inner_->name(); }
  std::int64_t decide(const rt3::GovernorObservation& obs) override;
  double shrink_margin(double configured_margin) const override {
    return inner_->shrink_margin(configured_margin);
  }
  void observe_batch(const rt3::BatchFeedback& feedback) override;
  double drain_lag_ms(std::int64_t active_pos, double frac_before,
                      double frac_after, double lat_ms) const override {
    return inner_->drain_lag_ms(active_pos, frac_before, frac_after, lat_ms);
  }
  void reset() override;

  void set_spans(SpanRecorder* spans) { spans_ = spans; }
  /// Calls to decide() since construction.
  std::int64_t decides() const { return decides_; }
  /// Times a decision differed from the previous one in its episode.
  std::int64_t level_changes() const { return level_changes_; }

 private:
  std::shared_ptr<rt3::GovernorPolicy> inner_;
  SpanRecorder* spans_;
  std::int64_t decides_ = 0;
  std::int64_t level_changes_ = 0;
  std::int64_t last_pos_ = -1;
};

/// Wraps an ExecutionBackend the caller keeps alive (for a Server, the
/// built-in analytic backend reached through Server::exec_backend(),
/// which the Server keeps owning after adopt_backend()).
class TracedBackend final : public rt3::ExecutionBackend {
 public:
  TracedBackend(rt3::ExecutionBackend& inner, SpanRecorder* spans)
      : inner_(inner), spans_(spans) {}

  const char* name() const override { return inner_.name(); }
  rt3::BatchExecution run_batch(std::int64_t batch_size,
                                std::int64_t level_pos) override;
  double activate_level(std::int64_t level_pos) override;
  void set_trace(rt3::TraceRecorder* trace, std::int64_t lane) override {
    inner_.set_trace(trace, lane);
  }

  void set_spans(SpanRecorder* spans) { spans_ = spans; }
  std::int64_t run_batch_calls() const { return run_batch_calls_; }
  std::int64_t activate_calls() const { return activate_calls_; }

 private:
  rt3::ExecutionBackend& inner_;
  SpanRecorder* spans_;
  std::int64_t run_batch_calls_ = 0;
  std::int64_t activate_calls_ = 0;
};

}  // namespace perfbench
