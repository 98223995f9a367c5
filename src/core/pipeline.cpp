#include "core/pipeline.hpp"

#include <algorithm>
#include <limits>

#include "common/check.hpp"
#include "common/wall_time.hpp"
#include "rl/reward.hpp"

namespace rt3 {

namespace {

// Evaluation shape of the dense and backbone scores (GLUE ignores it).
constexpr std::int64_t kEvalBatch = 8;
constexpr std::int64_t kEvalSeqLen = 16;

std::vector<VfLevel> resolve_levels(const std::vector<std::int64_t>& indices) {
  const VfTable table = VfTable::odroid_xu3_a7();
  std::vector<VfLevel> levels;
  levels.reserve(indices.size());
  for (std::int64_t i : indices) {
    levels.push_back(table.level(i));
  }
  // Fast -> slow ordering is required (M1 = fastest level).
  for (std::size_t i = 1; i < levels.size(); ++i) {
    check(levels[i].freq_mhz < levels[i - 1].freq_mhz,
          "Rt3Options: level_indices must be ordered fast -> slow");
  }
  return levels;
}

}  // namespace

Rt3Pipeline::Rt3Pipeline(TrainingTask& task, const Rt3Options& options)
    : task_(task),
      options_(options),
      levels_(resolve_levels(options.level_indices)),
      spec_(task.paper_spec()),
      latency_(task.paper_latency()),
      pruner_(task.prunable()) {}

Rt3Result Rt3Pipeline::run() {
  const double original = task_.dev_metric(kEvalBatch, kEvalSeqLen);

  // Level 1: block-structured pruning + masked recovery fine-tune.
  pruner_.apply_bp(options_.bp);
  train(task_, options_.backbone_train);
  const double backbone_acc = task_.dev_metric(kEvalBatch, kEvalSeqLen);
  const double backbone_sparsity = pruner_.overall_sparsity();

  // Level 2: shrunken search space from the fixed backbone.
  SearchSpaceConfig space_cfg = options_.space;
  space_cfg.timing_constraint_ms = options_.timing_constraint_ms;
  const PatternSearchSpace space =
      PatternSearchSpace::build(space_cfg, levels_, spec_, latency_,
                                pruner_.layers(), backbone_sparsity);
  return search(space, original, backbone_acc, backbone_sparsity);
}

double Rt3Pipeline::measure_sparsity(const PatternSet& set) {
  const double s = pruner_.apply_pattern_set(set);
  pruner_.restore_backbone();
  return s;
}

Rt3Result Rt3Pipeline::search(const PatternSearchSpace& space,
                              double original_accuracy,
                              double backbone_accuracy,
                              double backbone_sparsity) {
  const std::int64_t n_levels = static_cast<std::int64_t>(levels_.size());
  const PowerModel power;
  const double tranche =
      options_.energy_budget_mj / static_cast<double>(n_levels);
  const double min_accuracy = options_.min_accuracy > 0.0
                                  ? options_.min_accuracy
                                  : 0.5 * backbone_accuracy;

  // Normalizer for R_runs: the runs achievable at an aggressive 97%
  // sparsity at every level — an upper bound no real episode exceeds.
  double runs_reference = 0.0;
  for (const auto& level : levels_) {
    const double lat =
        latency_.latency_ms(spec_, 0.97, ExecMode::kPattern, level.freq_mhz);
    runs_reference += number_of_runs(tranche, power.power_mw(level), lat);
  }

  ControllerConfig ctrl_cfg = options_.controller;
  ctrl_cfg.num_levels = n_levels;
  ctrl_cfg.num_sparsity_choices = space.grid_size();
  ctrl_cfg.num_variants = space.num_variants();
  RlController controller(ctrl_cfg);
  Rng rng(options_.seed);

  Rt3Result result;
  result.original_accuracy = original_accuracy;
  result.backbone_accuracy = backbone_accuracy;
  result.backbone_sparsity = backbone_sparsity;

  struct BestEpisode {
    double reward = -std::numeric_limits<double>::infinity();
    // Paper selection rule: "In these Pareto frontiers, we select the ones
    // (P_T and P_L) with the highest accuracy" — so the deployed episode is
    // the feasible one with the best weighted accuracy, while the reward
    // (Eq. 1) still drives controller learning.
    double weighted_accuracy = -std::numeric_limits<double>::infinity();
    std::vector<PatternSet> sets;
    std::vector<double> sparsities;
    std::vector<double> latencies;
    std::vector<double> runs;
  };
  BestEpisode best;
  ParetoFront pareto;

  for (std::int64_t episode = 0; episode < options_.episodes; ++episode) {
    const EpisodeSample sample = controller.sample(rng);

    std::vector<PatternSet> sets;
    std::vector<double> sparsities;
    std::vector<double> latencies;
    std::vector<double> runs;
    for (std::int64_t i = 0; i < n_levels; ++i) {
      const PatternSet& set =
          space.variant(sample.sparsity_choice[static_cast<std::size_t>(i)],
                        sample.variant_choice[static_cast<std::size_t>(i)]);
      sets.push_back(set);
      const double sigma = measure_sparsity(set);
      sparsities.push_back(sigma);
      const double lat =
          latency_.latency_ms(spec_, sigma, ExecMode::kPattern,
                              levels_[static_cast<std::size_t>(i)].freq_mhz);
      latencies.push_back(lat);
      runs.push_back(number_of_runs(
          tranche, power.power_mw(levels_[static_cast<std::size_t>(i)]),
          lat));
    }

    RewardInputs inputs;
    inputs.latencies_ms = latencies;
    inputs.runs = runs;
    inputs.timing_constraint_ms = options_.timing_constraint_ms;
    inputs.backbone_accuracy = backbone_accuracy;
    inputs.min_accuracy = min_accuracy;
    inputs.runs_reference = runs_reference;
    inputs.penalty = options_.penalty;

    bool feasible = true;
    for (double lat : latencies) {
      feasible = feasible && lat <= options_.timing_constraint_ms;
    }
    if (feasible) {
      // Paper: fine-tune only when the timing constraint holds.
      inputs.accuracies =
          joint_train(task_, pruner_, sets, options_.episode_train)
              .per_set_accuracy;
    }

    const RewardResult reward = compute_reward(inputs);
    controller.update(sample, reward.value);

    ExploredPoint point;
    point.weighted_accuracy = reward.weighted_accuracy;
    point.total_runs = reward.total_runs;
    point.reward = reward.value;
    point.feasible = reward.feasible;
    result.explored.push_back(point);
    if (reward.feasible) {
      pareto.insert({reward.weighted_accuracy, reward.total_runs, episode});
      if (reward.weighted_accuracy > best.weighted_accuracy) {
        best = {reward.value, reward.weighted_accuracy,
                sets, sparsities, latencies, runs};
      }
    }
  }

  if (best.sets.empty()) {
    // No feasible episode: fall back to the heuristic choice (the paper's
    // baseline): smallest sparsity that satisfies T per level, variant 0.
    for (std::int64_t i = 0; i < n_levels; ++i) {
      const std::int64_t g = space.heuristic_choice_for_level(
          levels_[static_cast<std::size_t>(i)], spec_, latency_,
          ExecMode::kPattern, options_.timing_constraint_ms,
          backbone_sparsity);
      const PatternSet& set = space.variant(g, 0);
      best.sets.push_back(set);
      const double sigma = measure_sparsity(set);
      best.sparsities.push_back(sigma);
      best.latencies.push_back(
          latency_.latency_ms(spec_, sigma, ExecMode::kPattern,
                              levels_[static_cast<std::size_t>(i)].freq_mhz));
      best.runs.push_back(number_of_runs(
          tranche, power.power_mw(levels_[static_cast<std::size_t>(i)]),
          best.latencies.back()));
    }
  }

  // Assign the chosen sets to levels in increasing-sparsity order: the
  // fastest level takes the densest (most accurate) set.  This is the
  // ordering Eq. (1)'s cond term steers the controller toward; enforcing
  // it at selection time is safe because a denser set only ever moves to a
  // FASTER level.  Keep the permutation only if every level still meets T.
  {
    std::vector<std::size_t> order(best.sets.size());
    for (std::size_t i = 0; i < order.size(); ++i) {
      order[i] = i;
    }
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return best.sparsities[a] < best.sparsities[b];
    });
    BestEpisode sorted = best;
    bool feasible = true;
    for (std::size_t i = 0; i < order.size(); ++i) {
      sorted.sets[i] = best.sets[order[i]];
      sorted.sparsities[i] = best.sparsities[order[i]];
      sorted.latencies[i] =
          latency_.latency_ms(spec_, sorted.sparsities[i],
                              ExecMode::kPattern, levels_[i].freq_mhz);
      sorted.runs[i] = number_of_runs(tranche, power.power_mw(levels_[i]),
                                      sorted.latencies[i]);
      feasible = feasible &&
                 sorted.latencies[i] <= options_.timing_constraint_ms;
    }
    if (feasible) {
      best = std::move(sorted);
    }
  }

  // Final longer joint fine-tune of the selected solution.
  const std::vector<double> final_accs =
      joint_train(task_, pruner_, best.sets, options_.final_train)
          .per_set_accuracy;

  result.chosen_sets = best.sets;
  result.total_runs = 0.0;
  result.weighted_accuracy = 0.0;
  for (std::int64_t i = 0; i < n_levels; ++i) {
    SubModelResult sub;
    sub.level_name = levels_[static_cast<std::size_t>(i)].name;
    sub.freq_mhz = levels_[static_cast<std::size_t>(i)].freq_mhz;
    sub.pattern_sparsity = best.sets[static_cast<std::size_t>(i)].sparsity();
    sub.overall_sparsity = best.sparsities[static_cast<std::size_t>(i)];
    sub.latency_ms = best.latencies[static_cast<std::size_t>(i)];
    sub.accuracy = final_accs[static_cast<std::size_t>(i)];
    sub.runs = best.runs[static_cast<std::size_t>(i)];
    result.levels.push_back(sub);
    result.total_runs += sub.runs;
    result.weighted_accuracy +=
        sub.accuracy / static_cast<double>(n_levels);
  }

  // Switch costs (Table III "Interrupt" row): device-model numbers from the
  // cost model plus a measured wall-clock mask recomposition on this host.
  const SwitchCostModel cost_model;
  result.model_switch_ms =
      cost_model.full_model_switch_ms(spec_.dense_bytes());
  const std::int64_t tiles = spec_.num_tiles(100);
  std::int64_t max_set_bytes = 0;
  for (const auto& set : best.sets) {
    max_set_bytes = std::max(max_set_bytes, set.storage_bytes());
  }
  result.pattern_switch_ms =
      cost_model.pattern_set_switch_ms(max_set_bytes + tiles * 2, tiles);
  const auto t0 = wall_now();
  measure_sparsity(best.sets.front());
  result.pattern_switch_wall_ms = wall_ms_since(t0);
  return result;
}

DeploymentPackage Rt3Pipeline::package(const Rt3Result& result) const {
  DeploymentPackage pkg;
  for (const auto& np : task_.model().named_parameters()) {
    pkg.param_names.push_back(np.name);
    pkg.params.push_back(np.param.value());
  }
  for (std::size_t i = 0; i < pruner_.layers().size(); ++i) {
    pkg.prunable_names.push_back("prunable." + std::to_string(i));
    pkg.backbone_masks.push_back(pruner_.backbone_masks()[i]);
  }
  pkg.pattern_sets = result.chosen_sets;
  for (std::size_t i = 0; i < result.levels.size(); ++i) {
    const SubModelResult& sub = result.levels[i];
    LevelMeta meta;
    meta.level_name = sub.level_name;
    meta.freq_mhz = levels_[i].freq_mhz;
    meta.pattern_sparsity = sub.pattern_sparsity;
    meta.overall_sparsity = sub.overall_sparsity;
    meta.latency_ms = sub.latency_ms;
    meta.accuracy = sub.accuracy;
    pkg.levels.push_back(std::move(meta));
  }
  return pkg;
}

}  // namespace rt3
