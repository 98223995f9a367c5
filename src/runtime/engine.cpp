#include "runtime/engine.hpp"

#include <utility>

#include "common/check.hpp"
#include "common/wall_time.hpp"

namespace rt3 {

ReconfigEngine::ReconfigEngine(ModelPruner& pruner,
                               std::vector<PatternSet> sets,
                               SwitchCostModel cost_model, ModelSpec spec,
                               std::int64_t psize)
    : pruner_(pruner),
      sets_(std::move(sets)),
      cost_model_(cost_model),
      spec_(std::move(spec)),
      psize_(psize) {
  check(!sets_.empty(), "ReconfigEngine: no pattern sets");
  check(pruner_.has_backbone(), "ReconfigEngine: backbone not frozen");
}

SwitchReport ReconfigEngine::switch_to(std::int64_t to) {
  check(to >= 0 && to < num_levels(), "ReconfigEngine: level out of range");
  SwitchReport report;
  report.from_level = current_;
  report.to_level = to;
  if (to == current_) {
    return report;
  }
  const auto& set = sets_[static_cast<std::size_t>(to)];
  const std::int64_t tiles = spec_.num_tiles(psize_);
  report.modeled_ms = cost_model_.pattern_set_switch_ms(
      set.storage_bytes() + tiles * 2, tiles);

  const auto t0 = wall_now();
  pruner_.apply_pattern_set(set);
  report.wall_ms = wall_ms_since(t0);
  if (plan_swap_hook_) {
    report.plan_swap_wall_ms = plan_swap_hook_(to);
  }
  current_ = to;
  report.swap_bytes = set.storage_bytes();
  return report;
}

void ReconfigEngine::set_plan_swap_hook(PlanSwapHook hook) {
  plan_swap_hook_ = std::move(hook);
}

double ReconfigEngine::sparsity_at(std::int64_t level) {
  switch_to(level);
  return pruner_.overall_sparsity();
}

const PatternSet& ReconfigEngine::set_at(std::int64_t level) const {
  check(level >= 0 && level < num_levels(),
        "ReconfigEngine: level out of range");
  return sets_[static_cast<std::size_t>(level)];
}

DischargeStats simulate_discharge(const DischargeConfig& config,
                                  const VfTable& table,
                                  const Governor& governor,
                                  const PowerModel& power,
                                  const LatencyModel& latency,
                                  const ModelSpec& spec,
                                  const std::vector<double>& sparsities,
                                  ExecMode mode) {
  check(sparsities.size() == governor.levels().size(),
        "simulate_discharge: one sparsity per governor level required");
  Battery battery(config.battery_capacity_mj);
  DischargeStats stats;
  stats.runs_per_level.assign(governor.levels().size(), 0.0);

  std::int64_t active = -1;  // position within governor.levels()
  constexpr std::int64_t kMaxIterations = 50'000'000;
  for (std::int64_t iter = 0; iter < kMaxIterations && !battery.empty();
       ++iter) {
    const std::int64_t table_level = governor.level_for(battery.fraction());
    // Find position of this level in the governor's list.
    std::int64_t pos = 0;
    for (std::size_t i = 0; i < governor.levels().size(); ++i) {
      if (governor.levels()[i] == table_level) {
        pos = static_cast<std::int64_t>(i);
        break;
      }
    }
    if (pos != active) {
      if (active >= 0) {
        ++stats.switches;
        if (config.software_reconfig) {
          battery.drain(config.switch_energy_mj);
        }
      }
      active = pos;
    }
    const double sparsity = config.software_reconfig
                                ? sparsities[static_cast<std::size_t>(pos)]
                                : sparsities.front();
    const VfLevel& level = table.level(table_level);
    const double lat = latency.latency_ms(spec, sparsity, mode, level.freq_mhz);
    const double energy = power.energy_mj(level, lat);
    if (!battery.drain(energy)) {
      break;  // not enough charge for a full inference
    }
    stats.total_runs += 1.0;
    stats.runs_per_level[static_cast<std::size_t>(pos)] += 1.0;
    stats.simulated_seconds += lat / 1000.0;
    if (lat > config.timing_constraint_ms) {
      stats.deadline_misses += 1.0;
    }
  }
  return stats;
}

}  // namespace rt3
