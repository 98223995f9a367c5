// Run-time reconfiguration engine: swaps the active pattern set when the
// DVFS level changes, and the battery discharge simulator that drives it.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "dvfs/dvfs.hpp"
#include "perf/latency_model.hpp"
#include "perf/model_spec.hpp"
#include "pruning/model_pruner.hpp"
#include "sparse/pattern.hpp"

namespace rt3 {

/// Result of one reconfiguration switch.
struct SwitchReport {
  std::int64_t from_level = -1;
  std::int64_t to_level = -1;
  /// Device-model switch latency (Odroid-scale, from SwitchCostModel).
  double modeled_ms = 0.0;
  /// Wall-clock time the mask re-composition took on this host.
  double wall_ms = 0.0;
  /// Wall-clock time the plan-swap hook took (0 when no hook is set).
  double plan_swap_wall_ms = 0.0;
  /// Storage bytes of the pattern set swapped in (0 for a no-op switch).
  std::int64_t swap_bytes = 0;
};

/// Hook invoked after a pattern-set switch is applied, with the new level;
/// returns the host wall ms spent swapping execution plans (typically
/// PlanCache::swap_to via a MeasuredBackend).
using PlanSwapHook = std::function<double(std::int64_t)>;

/// Holds the backbone-resident model and switches pattern sets.
class ReconfigEngine {
 public:
  /// `sets` are ordered fast -> slow V/F level.  `spec` and psize size the
  /// modeled switch payload at paper scale.
  ReconfigEngine(ModelPruner& pruner, std::vector<PatternSet> sets,
                 SwitchCostModel cost_model, ModelSpec spec,
                 std::int64_t psize);

  std::int64_t num_levels() const {
    return static_cast<std::int64_t>(sets_.size());
  }
  std::int64_t current_level() const { return current_; }

  /// Applies level `to`'s pattern set (no-op report if already active).
  SwitchReport switch_to(std::int64_t to);

  /// Installs (or clears, with nullptr) the per-level plan-swap hook; it
  /// runs inside every effective switch_to and its wall time is reported
  /// in SwitchReport::plan_swap_wall_ms.
  void set_plan_swap_hook(PlanSwapHook hook);

  /// Overall model sparsity at a level (measured on the composed masks).
  double sparsity_at(std::int64_t level);

  const PatternSet& set_at(std::int64_t level) const;

 private:
  ModelPruner& pruner_;
  std::vector<PatternSet> sets_;
  SwitchCostModel cost_model_;
  ModelSpec spec_;
  std::int64_t psize_;
  std::int64_t current_ = -1;
  PlanSwapHook plan_swap_hook_;
};

/// Battery-discharge simulation (the paper's Table II experiment and the
/// battery_sim example).
struct DischargeConfig {
  double battery_capacity_mj = 5e5;
  double timing_constraint_ms = 115.0;
  /// When false, the same sub-model (index 0) runs at every level — the
  /// paper's E2 (hardware-only reconfiguration).
  bool software_reconfig = true;
  /// Energy cost of one pattern-set switch (mJ); tiny but accounted.
  double switch_energy_mj = 0.5;
};

struct DischargeStats {
  double total_runs = 0.0;
  double deadline_misses = 0.0;
  std::int64_t switches = 0;
  double simulated_seconds = 0.0;
  std::vector<double> runs_per_level;
};

/// Runs the battery down through the governor's levels.  `sparsities[i]`
/// is the overall model sparsity of the sub-model for governor level i
/// (fast -> slow); with software_reconfig=false only sparsities[0] is
/// used everywhere.
DischargeStats simulate_discharge(const DischargeConfig& config,
                                  const VfTable& table,
                                  const Governor& governor,
                                  const PowerModel& power,
                                  const LatencyModel& latency,
                                  const ModelSpec& spec,
                                  const std::vector<double>& sparsities,
                                  ExecMode mode);

}  // namespace rt3
