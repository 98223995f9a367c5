#include "obs/slo.hpp"

#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace rt3 {

const char* slo_rule_kind_name(SloRuleKind kind) {
  switch (kind) {
    case SloRuleKind::kMissBurn:
      return "miss_burn";
    case SloRuleKind::kLatencyEwma:
      return "latency_ewma";
    case SloRuleKind::kBatterySlope:
      return "battery_slope";
  }
  return "unknown";
}

SloMonitor::SloMonitor(std::vector<SloRule> rules)
    : rules_(std::move(rules)), states_(rules_.size()) {}

std::vector<SloRule> SloMonitor::default_rules() {
  std::vector<SloRule> rules;
  SloRule burn;
  burn.name = "miss-burn";
  burn.kind = SloRuleKind::kMissBurn;
  rules.push_back(burn);
  SloRule latency;
  latency.name = "latency-ewma";
  latency.kind = SloRuleKind::kLatencyEwma;
  rules.push_back(latency);
  SloRule battery;
  battery.name = "battery-slope";
  battery.kind = SloRuleKind::kBatterySlope;
  rules.push_back(battery);
  return rules;
}

void SloMonitor::transition(std::size_t rule_idx, bool breach,
                            double now_ms, double value,
                            std::int64_t misses, TraceRecorder* trace) {
  RuleState& state = states_[rule_idx];
  const SloRule& rule = rules_[rule_idx];
  if (breach == state.in_breach) return;
  state.in_breach = breach;
  if (breach) {
    SloEpisode episode;
    episode.rule = rule.name;
    episode.start_ms = now_ms;
    episode.trigger_value = value;
    episode.trigger_misses = misses;
    state.open_episode = static_cast<std::int64_t>(episodes_.size());
    episodes_.push_back(std::move(episode));
  } else {
    episodes_[static_cast<std::size_t>(state.open_episode)].end_ms = now_ms;
    state.open_episode = -1;
  }
  if (trace != nullptr) {
    TraceEvent ev(breach ? "slo.breach" : "slo.recover", "slo", now_ms, 0);
    ev.arg("rule", rule.name)
        .arg("kind", std::string(slo_rule_kind_name(rule.kind)))
        .arg("value", value);
    if (rule.kind == SloRuleKind::kMissBurn && breach) {
      ev.arg("misses", misses);
    }
    trace->record(std::move(ev));
  }
}

void SloMonitor::observe(const BatchOutcome& batch, TraceRecorder* trace) {
  const double mean_latency_ms =
      batch.latency_sum_ms / static_cast<double>(batch.batch_size);
  for (std::size_t i = 0; i < rules_.size(); ++i) {
    const SloRule& rule = rules_[i];
    RuleState& state = states_[i];
    switch (rule.kind) {
      case SloRuleKind::kMissBurn: {
        state.window.push_back({batch.end_ms, batch.batch_size, batch.misses});
        state.long_completed += batch.batch_size;
        state.long_missed += batch.misses;
        while (!state.window.empty() &&
               state.window.front().end_ms <
                   batch.end_ms - rule.long_window_ms) {
          state.long_completed -= state.window.front().completed;
          state.long_missed -= state.window.front().missed;
          state.window.pop_front();
        }
        std::int64_t short_completed = 0;
        std::int64_t short_missed = 0;
        for (auto it = state.window.rbegin(); it != state.window.rend();
             ++it) {
          if (it->end_ms < batch.end_ms - rule.short_window_ms) break;
          short_completed += it->completed;
          short_missed += it->missed;
        }
        const double short_rate =
            static_cast<double>(short_missed) /
            static_cast<double>(short_completed > 0 ? short_completed : 1);
        const double long_rate =
            static_cast<double>(state.long_missed) /
            static_cast<double>(state.long_completed > 0
                                    ? state.long_completed
                                    : 1);
        const bool breach = short_missed >= rule.min_misses &&
                            short_rate >= rule.short_threshold &&
                            long_rate >= rule.long_threshold;
        transition(i, breach, batch.end_ms, short_rate, short_missed, trace);
        break;
      }
      case SloRuleKind::kLatencyEwma: {
        if (!state.ewma_init) {
          state.ewma = mean_latency_ms;
          state.ewma_init = true;
        } else {
          state.ewma += rule.ewma_alpha * (mean_latency_ms - state.ewma);
        }
        transition(i, state.ewma > rule.latency_threshold_ms, batch.end_ms,
                   state.ewma, 0, trace);
        break;
      }
      case SloRuleKind::kBatterySlope: {
        state.slope.emplace_back(batch.end_ms, batch.battery_fraction);
        while (!state.slope.empty() &&
               state.slope.front().first <
                   batch.end_ms - rule.slope_window_ms) {
          state.slope.pop_front();
        }
        const double span =
            state.slope.back().first - state.slope.front().first;
        if (span < rule.slope_window_ms / 2.0) {
          // Not enough history to trust a slope; hold the current state.
          break;
        }
        const double drained =
            state.slope.front().second - state.slope.back().second;
        if (drained <= 0.0) {
          transition(i, false, batch.end_ms, 0.0, 0, trace);
          break;
        }
        const double projected_ms =
            state.slope.back().second * span / drained;
        transition(i, projected_ms < rule.min_projected_ms, batch.end_ms,
                   projected_ms, 0, trace);
        break;
      }
    }
  }
}

std::int64_t SloMonitor::active_breaches() const {
  std::int64_t n = 0;
  for (const RuleState& s : states_) n += s.in_breach ? 1 : 0;
  return n;
}

void SloMonitor::publish(MetricsRegistry& registry) const {
  std::int64_t total = 0;
  for (std::size_t i = 0; i < rules_.size(); ++i) {
    std::int64_t count = 0;
    for (const SloEpisode& e : episodes_) {
      if (e.rule == rules_[i].name) ++count;
    }
    total += count;
    const MetricLabels labels{{"rule", rules_[i].name}};
    registry.counter("slo.breaches", labels).inc(count);
    registry.gauge("slo.in_breach", labels)
        .set(states_[i].in_breach ? 1.0 : 0.0);
  }
  registry.counter("slo.breaches").inc(total);
}

std::string SloMonitor::to_json() const {
  std::string out = "[";
  for (std::size_t i = 0; i < episodes_.size(); ++i) {
    const SloEpisode& e = episodes_[i];
    if (i > 0) out += ", ";
    out += "{\"rule\": \"" + trace_json_escape(e.rule) + "\"";
    out += ", \"start_ms\": " + trace_json_num(e.start_ms);
    out += ", \"end_ms\": " + trace_json_num(e.end_ms);
    out += ", \"trigger_value\": " + trace_json_num(e.trigger_value);
    out += ", \"trigger_misses\": " + std::to_string(e.trigger_misses);
    out += "}";
  }
  out += "]";
  return out;
}

}  // namespace rt3
