// The end-to-end RT3 pipeline (paper Fig. 1), written once for both of
// the paper's workloads over the training-task seam (train/task.hpp):
//
//   Level 1:  block-structured pruning of the pre-trained model -> fixed
//             backbone C, brief masked fine-tune.
//   Level 2:  build the shrunken pattern search space from C, run the RL
//             controller for a number of episodes — each episode samples
//             one pattern set per V/F level, checks the timing constraint
//             with the calibrated latency model, jointly trains the shared
//             backbone (Fig. 2) when feasible, and feeds the Eq. (1)
//             reward back — then fine-tunes the best solution and emits a
//             DeploymentPackage plus the exploration history (Fig. 3).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/pareto.hpp"
#include "dvfs/dvfs.hpp"
#include "perf/latency_model.hpp"
#include "pruning/model_pruner.hpp"
#include "rl/controller.hpp"
#include "runtime/package.hpp"
#include "search/space.hpp"
#include "train/trainer.hpp"

namespace rt3 {

/// Everything configurable about one RT3 run.
struct Rt3Options {
  double timing_constraint_ms = 110.0;
  /// VfTable indices, fast -> slow (paper: {l6, l4, l3} = {5, 3, 2}).
  std::vector<std::int64_t> level_indices = {5, 3, 2};
  std::int64_t episodes = 10;
  double energy_budget_mj = 5e5;
  double min_accuracy = 0.0;  // Am; 0 = auto (0.5 * backbone accuracy)
  double penalty = 0.25;      // pen of Eq. (1)

  BpConfig bp;
  SearchSpaceConfig space;
  ControllerConfig controller;
  /// Short fine-tune inside each feasible episode.
  TrainConfig episode_train;
  /// Longer fine-tune of the selected solution.
  TrainConfig final_train;
  /// Level-1 recovery fine-tune after BP.
  TrainConfig backbone_train;

  std::uint64_t seed = 99;
};

/// Per-level outcome of the selected solution.
struct SubModelResult {
  std::string level_name;
  double freq_mhz = 0.0;
  double pattern_sparsity = 0.0;
  double overall_sparsity = 0.0;
  double latency_ms = 0.0;
  double accuracy = 0.0;
  double runs = 0.0;
};

/// One explored episode (Fig. 3(a) scatter).
struct ExploredPoint {
  double weighted_accuracy = 0.0;
  double total_runs = 0.0;
  double reward = 0.0;
  bool feasible = false;
};

/// Full result of an RT3 run.
struct Rt3Result {
  double original_accuracy = 0.0;   // dense pre-trained model
  double backbone_accuracy = 0.0;   // after Level 1 (Ao)
  double backbone_sparsity = 0.0;
  std::vector<SubModelResult> levels;
  std::vector<ExploredPoint> explored;
  double total_runs = 0.0;
  double weighted_accuracy = 0.0;
  /// Switch costs (paper Table III "Interrupt" row).
  double model_switch_ms = 0.0;         // UB: full model reload
  double pattern_switch_ms = 0.0;       // RT3, device model
  double pattern_switch_wall_ms = 0.0;  // RT3, measured on this host
  std::vector<PatternSet> chosen_sets;
};

/// RT3 on one workload, seen through the training-task seam.
class Rt3Pipeline {
 public:
  /// `task`'s model must already be pre-trained.  The latency model is
  /// calibrated on the workload's paper anchor.
  Rt3Pipeline(TrainingTask& task, const Rt3Options& options);

  Rt3Result run();

  /// Builds the deployable artifact from a finished run.
  DeploymentPackage package(const Rt3Result& result) const;

  const LatencyModel& latency_model() const { return latency_; }

 private:
  /// Level 2: the RL pattern-set search over `space`, then the final
  /// joint fine-tune of the selected sets and the switch costs.
  Rt3Result search(const PatternSearchSpace& space, double original_accuracy,
                   double backbone_accuracy, double backbone_sparsity);
  /// Composed overall sparsity of `set` on the backbone (restored after).
  double measure_sparsity(const PatternSet& set);

  TrainingTask& task_;
  Rt3Options options_;
  std::vector<VfLevel> levels_;  // options_.level_indices, fast -> slow
  ModelSpec spec_;
  LatencyModel latency_;
  ModelPruner pruner_;
};

}  // namespace rt3
