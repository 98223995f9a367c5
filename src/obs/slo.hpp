// SLO burn-rate monitoring over the continuous telemetry stream.
//
// An SloMonitor evaluates declarative rules at every batch boundary of a
// serving session and maintains a per-rule breach/recover state machine:
//
//   * kMissBurn   — multi-window burn-rate alerting (the Google SRE
//     pattern): breach when the deadline-miss rate over a SHORT window
//     AND a LONG window both exceed their thresholds, with an absolute
//     minimum-miss floor so a single miss in a quiet second cannot page.
//     The short window makes the alert fast; the long window makes it
//     sticky enough to matter.
//   * kLatencyEwma — p99 proxy: breach while the per-batch mean-latency
//     EWMA exceeds a threshold.
//   * kBatterySlope — projection: fit the battery drain slope over a
//     window and breach when the projected time-to-empty falls below a
//     floor (the "will not survive the flight" alarm).
//
// State transitions emit deterministic `slo.breach` / `slo.recover`
// instant events on trace lane 0 (the node/governor lane) into the
// recorder the serving loop passes to each observe() call (the monitor
// never stores one), and accumulate SloEpisode records; `publish` counts
// breaches into the MetricsRegistry.
// Everything is driven by the virtual clock — no wall time, no threads —
// so two runs of the same seeded session produce identical episodes.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "obs/batch_outcome.hpp"

namespace rt3 {

class MetricsRegistry;
class TraceRecorder;

enum class SloRuleKind : std::uint8_t {
  kMissBurn,
  kLatencyEwma,
  kBatterySlope,
};

const char* slo_rule_kind_name(SloRuleKind kind);

/// One declarative rule; only the fields for its `kind` are read.
struct SloRule {
  std::string name;
  SloRuleKind kind = SloRuleKind::kMissBurn;

  // kMissBurn: breach when miss-rate(short) >= short_threshold AND
  // miss-rate(long) >= long_threshold AND misses(short) >= min_misses.
  double short_window_ms = 5'000.0;
  double long_window_ms = 30'000.0;
  double short_threshold = 0.5;
  double long_threshold = 0.2;
  std::int64_t min_misses = 3;

  // kLatencyEwma: breach while ewma(mean batch latency) > threshold.
  double latency_threshold_ms = 800.0;
  double ewma_alpha = 0.2;

  // kBatterySlope: breach when projected time-to-empty at the observed
  // drain slope over `slope_window_ms` drops below `min_projected_ms`.
  // Only evaluated once the window spans at least half its width.
  double slope_window_ms = 10'000.0;
  double min_projected_ms = 60'000.0;
};

/// One contiguous breach interval of one rule.
struct SloEpisode {
  std::string rule;
  double start_ms = 0.0;
  /// -1 while still in breach when the session ended.
  double end_ms = -1.0;
  /// The rule expression's value when the breach opened (miss rate,
  /// latency EWMA ms, or projected time-to-empty ms).
  double trigger_value = 0.0;
  /// Misses inside the short window when the breach opened (kMissBurn).
  std::int64_t trigger_misses = 0;
};

class SloMonitor {
 public:
  explicit SloMonitor(std::vector<SloRule> rules);

  /// The stock rule set the CLI's --slo flag enables: a miss burn-rate
  /// rule, a latency-EWMA rule, and a battery-slope projection.
  static std::vector<SloRule> default_rules();

  /// Evaluates every rule at one batch boundary; `batch.end_ms` must be
  /// non-decreasing across calls.  Breach/recover transitions are
  /// recorded into `trace` on lane 0 when it is non-null.
  void observe(const BatchOutcome& batch, TraceRecorder* trace = nullptr);

  const std::vector<SloRule>& rules() const { return rules_; }
  /// Episodes in breach-start order; an open episode has end_ms == -1.
  const std::vector<SloEpisode>& episodes() const { return episodes_; }
  /// Breach episodes begun (open + closed).
  std::int64_t breaches() const {
    return static_cast<std::int64_t>(episodes_.size());
  }
  std::int64_t active_breaches() const;

  /// Counts episodes into `slo.breaches{rule=...}` (+ an unlabeled
  /// total) and sets `slo.in_breach{rule=...}` gauges.
  void publish(MetricsRegistry& registry) const;

  /// [{"rule": ..., "start_ms": ..., "end_ms": ..., "trigger_value": ...,
  ///   "trigger_misses": ...}, ...]
  std::string to_json() const;

 private:
  /// One batch inside a kMissBurn window.
  struct WindowEntry {
    double end_ms = 0.0;
    std::int64_t completed = 0;
    std::int64_t missed = 0;
  };

  struct RuleState {
    bool in_breach = false;
    /// Index into episodes_ of the open episode (-1 when not in breach).
    std::int64_t open_episode = -1;
    /// kMissBurn: observations inside the long window, front = oldest.
    std::deque<WindowEntry> window;
    std::int64_t long_completed = 0;
    std::int64_t long_missed = 0;
    /// kLatencyEwma.
    double ewma = 0.0;
    bool ewma_init = false;
    /// kBatterySlope: (end_ms, battery_fraction) inside the slope window.
    std::deque<std::pair<double, double>> slope;
  };

  /// Applies one rule's breach decision, opening/closing episodes and
  /// emitting transition events into `trace` (when non-null).
  void transition(std::size_t rule_idx, bool breach, double now_ms,
                  double value, std::int64_t misses, TraceRecorder* trace);

  std::vector<SloRule> rules_;
  std::vector<RuleState> states_;
  std::vector<SloEpisode> episodes_;
};

}  // namespace rt3
