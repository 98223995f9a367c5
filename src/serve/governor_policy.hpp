// The governor seam: every level decision in the serving path goes
// through a GovernorPolicy, so "which rung do we run the next batch at"
// is a pluggable strategy instead of a hard-wired threshold lookup.
//
// Three families implement the seam:
//
//   LadderPolicy         — the paper's static battery-threshold ladder,
//       bit-for-bit the historical Governor behaviour (the default; every
//       pre-seam bench cell is byte-identical under it).
//   AdaptiveMarginPolicy — ladder decisions, but the governor-aware
//       batching margin widens/narrows with the observed per-batch energy
//       draw instead of staying a fixed configuration constant.
//   RlGovernorPolicy     — the paper's learned runtime controller
//       (src/rl/governor.hpp): a GRU policy over (battery fraction, queue
//       depth, deadline pressure, miss-rate EWMA), trained offline in the
//       virtual-clock simulator.
//
// The seam is deliberately narrow and pull-based: the serving loop builds
// a GovernorObservation at each decision point and asks the policy, then
// feeds back one BatchOutcome per executed batch.  Policies keep their own
// EWMAs from that feedback — they must NOT read the observability layer,
// which is contractually pure observation (attaching telemetry must leave
// serving byte-identical, so no control path may depend on it).
//
// Servers and nodes take a GovernorHandle, implicitly constructible from
// a plain Governor (wrapped in a LadderPolicy), so historical call sites
// keep compiling unchanged while policy-driven ones share one policy
// instance across every shard behind the same battery.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "dvfs/dvfs.hpp"
#include "obs/batch_outcome.hpp"

namespace rt3 {

/// What the serving loop knows at a decision point (a batch boundary or
/// an idle wakeup).  Everything here is derived from loop-local state —
/// building it never perturbs the session.
struct GovernorObservation {
  double now_ms = 0.0;
  double battery_fraction = 1.0;
  /// Requests pending across the deciding scope's batcher(s).
  std::int64_t queue_depth = 0;
  /// How much of the oldest pending request's max-wait budget is already
  /// consumed, in [0, 1]; 0 when nothing is pending.  1 means a batch
  /// release is being forced right now — the deadline pressure signal.
  double deadline_pressure = 0.0;
};

/// Former name of the per-batch record, still spelled by perfbench's
/// policy decorator; new code says BatchOutcome.
using BatchFeedback = BatchOutcome;

/// Deadline-pressure signal from batcher state: the consumed share of the
/// oldest pending request's max-wait budget, in [0, 1].  `release_at_ms`
/// is the forced-release instant (+infinity when nothing pends -> 0).
double deadline_pressure(double now_ms, double release_at_ms,
                         double max_wait_ms);

/// Owns the level decision at every decision point of a serving loop.
/// Constructed over a Governor ladder, which remains the source of truth
/// for the level list (positions, table indices) even when decisions
/// ignore its thresholds.
class GovernorPolicy {
 public:
  explicit GovernorPolicy(Governor ladder) : ladder_(std::move(ladder)) {}
  virtual ~GovernorPolicy() = default;

  GovernorPolicy(const GovernorPolicy&) = delete;
  GovernorPolicy& operator=(const GovernorPolicy&) = delete;

  /// Short stable identifier ("ladder" / "adaptive" / "rl").
  virtual std::string name() const = 0;

  /// Level POSITION (0 = fastest rung) to run at, given the observation.
  virtual std::int64_t decide(const GovernorObservation& obs) = 0;

  /// Effective governor-aware-batching margin, given the configured one.
  /// The loop shrinks the batch cap while the battery sits within this
  /// margin above next_step_down; returning `configured_margin` unchanged
  /// (the default) preserves the historical behaviour exactly.
  virtual double shrink_margin(double configured_margin) const {
    return configured_margin;
  }

  /// The loop's per-batch record after every executed batch (the
  /// policy's only outcome channel, so stateful policies stay independent
  /// of the pure-observation telemetry layer).  Stateless policies
  /// ignore it.
  virtual void observe_batch(const BatchOutcome& feedback) {
    (void)feedback;
  }

  /// Drain-then-switch lag bookkeeping: after a batch drained the battery
  /// from `frac_before` to `frac_after` over `lat_ms`, returns the lag
  /// from the decision boundary being crossed inside that (linear) drain
  /// to the batch's end — or a NEGATIVE value when this batch crossed no
  /// boundary (the caller then leaves its pending lag untouched).
  /// The default interpolates against the ladder threshold, exactly the
  /// historical formula.
  virtual double drain_lag_ms(std::int64_t active_pos, double frac_before,
                              double frac_after, double lat_ms) const;

  /// Clears per-episode state (EWMAs, recurrent state, cached decisions)
  /// at session start.  Learned weights survive; serve() calls this so
  /// repeated sessions on one policy instance are independent.
  virtual void reset() {}

  /// Battery fraction at which the ladder's level for `battery_fraction`
  /// steps down (0 on the last rung) — drives the margin shrink window
  /// and stays ladder-defined for every policy.
  double next_step_down(double battery_fraction) const {
    return ladder_.next_step_down(battery_fraction);
  }

  const Governor& ladder() const { return ladder_; }
  std::int64_t num_levels() const {
    return static_cast<std::int64_t>(ladder_.levels().size());
  }

 protected:
  Governor ladder_;
};

/// The historical static threshold governor behind the policy seam:
/// decisions are pure battery-threshold lookups, so a session under
/// LadderPolicy is byte-identical to the pre-seam serving path.
class LadderPolicy final : public GovernorPolicy {
 public:
  explicit LadderPolicy(Governor ladder) : GovernorPolicy(std::move(ladder)) {}

  std::string name() const override { return "ladder"; }
  std::int64_t decide(const GovernorObservation& obs) override {
    return ladder_.level_position(obs.battery_fraction);
  }
};

/// Ladder decisions with a self-sizing batching margin: instead of a
/// fixed configured margin, the shrink window tracks an EWMA of the
/// per-batch battery drain — heavy draw widens the window (the threshold
/// is coming fast, start shrinking earlier), light draw narrows it (don't
/// give up batch amortization for a crossing that is still far away).
class AdaptiveMarginPolicy final : public GovernorPolicy {
 public:
  struct Config {
    /// Margin expressed in units of per-batch drain: 2.0 means "start
    /// shrinking when the threshold is within ~2 batches of drain".
    double batches_of_headroom = 2.0;
    /// EWMA smoothing of the per-batch drain fraction.
    double drain_alpha = 0.2;
    /// Hard cap so a pathological draw spike cannot pin the margin open.
    double max_margin = 0.25;
  };

  explicit AdaptiveMarginPolicy(Governor ladder);
  AdaptiveMarginPolicy(Governor ladder, Config config);

  std::string name() const override { return "adaptive"; }
  std::int64_t decide(const GovernorObservation& obs) override {
    return ladder_.level_position(obs.battery_fraction);
  }
  double shrink_margin(double configured_margin) const override;
  void observe_batch(const BatchOutcome& feedback) override;
  void reset() override { drain_ewma_ = 0.0; }

  double drain_ewma() const { return drain_ewma_; }
  const Config& config() const { return config_; }

 private:
  Config config_;
  double drain_ewma_ = 0.0;
};

/// The governor surface Server/ServeNode constructors take: a shared
/// policy, implicitly constructible from a bare Governor (wrapped in a
/// LadderPolicy) so historical call sites stay one-line.  Shards behind
/// one battery share ONE policy instance through copies of the handle.
class GovernorHandle {
 public:
  /// Wraps the ladder in a LadderPolicy (the default governor behaviour).
  GovernorHandle(Governor ladder)  // NOLINT(google-explicit-constructor)
      : policy_(std::make_shared<LadderPolicy>(std::move(ladder))) {}

  /// Adopts a shared policy (rl / adaptive / custom).
  GovernorHandle(  // NOLINT(google-explicit-constructor)
      std::shared_ptr<GovernorPolicy> policy);

  GovernorPolicy& policy() const { return *policy_; }
  const std::shared_ptr<GovernorPolicy>& shared() const { return policy_; }
  /// The underlying level ladder (level list + thresholds).
  const Governor& ladder() const { return policy_->ladder(); }

 private:
  std::shared_ptr<GovernorPolicy> policy_;
};

}  // namespace rt3
