#include "runtime/engine.hpp"

#include <utility>

#include "common/check.hpp"
#include "common/wall_time.hpp"

namespace rt3 {

ReconfigEngine::ReconfigEngine(ModelPruner& pruner,
                               const std::vector<PatternSet>& sets,
                               const SwitchCostModel& cost_model,
                               const ModelSpec& spec, std::int64_t psize)
    : pruner_(pruner) {
  check(!sets.empty(), "ReconfigEngine: no pattern sets");
  check(pruner_.has_backbone(), "ReconfigEngine: backbone not frozen");
  const std::int64_t tiles = spec.num_tiles(psize);
  levels_.reserve(sets.size());
  for (const PatternSet& set : sets) {
    Level level;
    level.masks = pruner_.compose_pattern_masks(set);
    level.swap_bytes = set.storage_bytes();
    level.modeled_ms = cost_model.pattern_set_switch_ms(
        level.swap_bytes + tiles * 2, tiles);
    levels_.push_back(std::move(level));
  }
}

const ReconfigEngine::Level& ReconfigEngine::level_at(
    std::int64_t level) const {
  check(level >= 0 && level < num_levels(),
        "ReconfigEngine: level out of range");
  return levels_[static_cast<std::size_t>(level)];
}

SwitchReport ReconfigEngine::switch_to(std::int64_t to) {
  const Level& level = level_at(to);
  SwitchReport report;
  report.from_level = current_;
  report.to_level = to;
  if (to == current_) {
    return report;
  }
  report.modeled_ms = level.modeled_ms;
  const auto t0 = wall_now();
  pruner_.install_masks(level.masks);
  report.wall_ms = wall_ms_since(t0);
  current_ = to;
  report.swap_bytes = level.swap_bytes;
  return report;
}

double ReconfigEngine::sparsity_at(std::int64_t level) const {
  return masks_sparsity(level_at(level).masks);
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
