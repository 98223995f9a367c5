// Run-time reconfiguration engine: swaps the active pattern set when the
// DVFS level changes, and the battery discharge simulator that drives it.
#pragma once

#include <cstdint>
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
  /// Wall-clock time installing the level's stored masks took on this host.
  double wall_ms = 0.0;
  /// Storage bytes of the pattern set swapped in (0 for a no-op switch).
  std::int64_t swap_bytes = 0;
};

/// Holds the backbone-resident model and switches pattern sets.
///
/// Every level's per-layer `backbone AND pattern` masks, modeled switch
/// latency and swap payload are composed once, at construction, so an
/// effective switch_to only installs the stored masks: no pattern choice,
/// no heap allocation once every layer holds a mask, and a cost that does
/// not depend on the pattern set.  The masks are taken from the pruner's
/// weights and backbone as they are when the engine is built; an engine
/// does not see later weight or backbone updates (build a new one).
class ReconfigEngine {
 public:
  /// `sets` are ordered fast -> slow V/F level.  `spec` and psize size the
  /// modeled switch payload at paper scale.  Throws CheckError when a set's
  /// psize does not tile one of the pruner's layers.
  ReconfigEngine(ModelPruner& pruner, const std::vector<PatternSet>& sets,
                 const SwitchCostModel& cost_model, const ModelSpec& spec,
                 std::int64_t psize);

  std::int64_t num_levels() const {
    return static_cast<std::int64_t>(levels_.size());
  }
  std::int64_t current_level() const { return current_; }

  /// Installs level `to`'s masks (no-op report if already active).
  SwitchReport switch_to(std::int64_t to);

  /// Overall model sparsity at a level, read from its stored masks; the
  /// active level does not change.
  double sparsity_at(std::int64_t level) const;

 private:
  struct Level {
    /// One composed mask per pruner layer, in layers() order.
    std::vector<Tensor> masks;
    double modeled_ms = 0.0;
    std::int64_t swap_bytes = 0;
  };

  const Level& level_at(std::int64_t level) const;

  ModelPruner& pruner_;
  std::vector<Level> levels_;
  std::int64_t current_ = -1;
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
