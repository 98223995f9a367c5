// Training loops over the training-task seam (train/task.hpp), written
// once for both of the paper's workloads: pre-training and fine-tuning
// (Level-1 recovery with the optional reweighted group lasso, and the
// individually trained accuracy upper bound of Table III), and the
// Fig.-2 JOINT training of the shared backbone across all selected
// pattern sets.
#pragma once

#include <cstdint>
#include <vector>

#include "pruning/model_pruner.hpp"
#include "sparse/pattern.hpp"
#include "train/task.hpp"

namespace rt3 {

struct TrainConfig {
  std::int64_t steps = 150;
  std::int64_t batch = 8;
  std::int64_t seq_len = 16;
  float lr = 5e-3F;
  /// Group-lasso strength on the prunable weights (0 disables).
  float group_lasso_lambda = 0.0F;
  std::int64_t lasso_blocks = 4;
  std::uint64_t seed = 31;
};

/// Pre-trains / fine-tunes the task's model.  Honours any masks installed
/// on it (masked weights receive no gradient).  Returns the dev metric
/// at the config's batch and seq_len.
double train(TrainingTask& task, const TrainConfig& config);

/// Fig. 2 joint training: for each step, every pattern set is applied in
/// turn, its sub-loss computed on the SAME minibatch, and the weighted sum
/// back-propagated through the shared backbone.  Afterwards the model's
/// masks are left on the LAST set; callers re-apply per-level masks before
/// evaluating.  Returns per-set dev metrics measured after training.
struct JointTrainResult {
  std::vector<double> per_set_accuracy;
};

JointTrainResult joint_train(TrainingTask& task, ModelPruner& pruner,
                             const std::vector<PatternSet>& sets,
                             const TrainConfig& config,
                             const std::vector<double>& set_weights = {});

}  // namespace rt3
