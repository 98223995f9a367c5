#include "train/trainer.hpp"

#include "common/check.hpp"
#include "pruning/block_prune.hpp"
#include "tensor/optim.hpp"

namespace rt3 {

double train(TrainingTask& task, const TrainConfig& config) {
  Adam opt(task.model().parameters(), config.lr);
  Rng rng(config.seed);

  // Lasso regularization targets the prunable weights (Level-1 prep).
  std::vector<Linear*> lasso_layers;
  if (config.group_lasso_lambda > 0.0F) {
    lasso_layers = task.prunable();
  }

  for (std::int64_t step = 0; step < config.steps; ++step) {
    task.draw_minibatch(rng, config.batch, config.seq_len);
    opt.zero_grad();
    Var loss = task.minibatch_loss();
    for (Linear* layer : lasso_layers) {
      if (layer->weight().shape()[0] % config.lasso_blocks != 0) {
        continue;
      }
      const auto coeffs = reweighting_coefficients(layer->weight().value(),
                                                   config.lasso_blocks);
      loss = add(loss, scale(group_lasso_penalty(layer->weight(),
                                                 config.lasso_blocks, coeffs),
                             config.group_lasso_lambda));
    }
    loss.backward();
    opt.step();
  }
  return task.dev_metric(config.batch, config.seq_len);
}

namespace {

std::vector<double> normalized_weights(std::size_t n,
                                       const std::vector<double>& weights) {
  if (weights.empty()) {
    return std::vector<double>(n, 1.0 / static_cast<double>(n));
  }
  check(weights.size() == n, "joint_train: weight arity mismatch");
  double total = 0.0;
  for (double w : weights) {
    total += w;
  }
  check(total > 0.0, "joint_train: weights must sum positive");
  std::vector<double> out = weights;
  for (double& w : out) {
    w /= total;
  }
  return out;
}

}  // namespace

JointTrainResult joint_train(TrainingTask& task, ModelPruner& pruner,
                             const std::vector<PatternSet>& sets,
                             const TrainConfig& config,
                             const std::vector<double>& set_weights) {
  check(!sets.empty(), "joint_train: no pattern sets");
  const auto alphas = normalized_weights(sets.size(), set_weights);
  Adam opt(task.model().parameters(), config.lr);
  Rng rng(config.seed);

  for (std::int64_t step = 0; step < config.steps; ++step) {
    task.draw_minibatch(rng, config.batch, config.seq_len);
    opt.zero_grad();
    // Fig. 2 forward: one sub-loss per pattern set on the same minibatch;
    // each apply_pattern_set captures its masks into that sub-graph.
    Var total;
    for (std::size_t i = 0; i < sets.size(); ++i) {
      pruner.apply_pattern_set(sets[i]);
      Var sub = scale(task.minibatch_loss(), static_cast<float>(alphas[i]));
      total = total.defined() ? add(total, sub) : sub;
    }
    total.backward();
    opt.step();
  }

  JointTrainResult result;
  for (const auto& set : sets) {
    pruner.apply_pattern_set(set);
    result.per_set_accuracy.push_back(
        task.dev_metric(config.batch, config.seq_len));
  }
  return result;
}

}  // namespace rt3
