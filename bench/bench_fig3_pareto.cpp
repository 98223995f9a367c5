// Reproduces paper Fig. 3: search-space exploration.
//
// (a) Pareto frontiers of explored solutions (weighted accuracy vs number
//     of runs) under the loose (104 ms) and tight (94 ms) constraints; the
//     loose frontier must cover the tight one.
// (b,c) The best solutions P_L / P_T: per-level accuracy-vs-sparsity
//     curves for RT3, the heuristic baseline (smallest sparsity meeting T,
//     jointly trained), the accuracy upper bound, and the reference lines
//     for the original and BP-only models.
#include <iostream>

#include "bench_util.hpp"
#include "common/table.hpp"
#include "search/space.hpp"

namespace {

using namespace rt3;

struct FrontierRun {
  Rt3Result result;
  std::vector<double> heuristic_acc;
  std::vector<double> heuristic_sparsity;
  std::vector<double> ub_acc;
};

FrontierRun explore(double timing_ms, std::uint64_t seed,
                    std::int64_t episodes) {
  FrontierRun out;
  bench::Workload w = bench::make_lm_workload(seed);
  // Clone the pre-trained model for the heuristic and UB baselines (same
  // starting point as RT3, no redundant retraining).
  const auto heuristic = w.task->clone();
  const auto ub = w.task->clone();

  Rt3Options options = bench::bench_options(timing_ms, episodes);
  Rt3Pipeline pipeline(*w.task, options);
  out.result = pipeline.run();

  // Heuristic baseline: per level, the smallest grid sparsity meeting T,
  // jointly trained on the cloned pre-trained model.
  ModelPruner pruner(heuristic->prunable());
  pruner.apply_bp(options.bp);
  train(*heuristic, options.backbone_train);
  const double backbone_sparsity = pruner.overall_sparsity();

  const ModelSpec spec = heuristic->paper_spec();
  const LatencyModel& latency = pipeline.latency_model();
  const VfTable table = VfTable::odroid_xu3_a7();
  Rng rng(seed + 7);
  std::vector<PatternSet> heuristic_sets;
  for (std::int64_t li : {5, 3, 2}) {
    const double target = std::max(
        backbone_sparsity,
        latency.sparsity_for_latency(spec, ExecMode::kPattern,
                                     table.level(li).freq_mhz, timing_ms));
    heuristic_sets.push_back(pattern_set_from_layers(
        pruner.layers(), options.space.psize, target,
        options.space.patterns_per_set, rng));
  }
  for (const auto& set : heuristic_sets) {
    out.heuristic_sparsity.push_back(pruner.apply_pattern_set(set));
    pruner.restore_backbone();
  }
  out.heuristic_acc =
      joint_train(*heuristic, pruner, heuristic_sets, options.final_train)
          .per_set_accuracy;

  // Accuracy upper bound on RT3's chosen sets.
  out.ub_acc = bench::ub_accuracies(*ub, options.bp, out.result.chosen_sets,
                                    options.final_train);
  return out;
}

void print_frontier(const std::string& label, const Rt3Result& result) {
  std::cout << "\n  " << label << " explored points (weighted acc, runs 1e6, "
            << "feasible):\n";
  for (const auto& p : result.explored) {
    std::cout << "    acc=" << fmt_pct(p.weighted_accuracy)
              << "  runs=" << fmt_millions(p.total_runs)
              << "  reward=" << fmt_f(p.reward, 3)
              << (p.feasible ? "" : "  [infeasible]") << "\n";
  }
  ParetoFront front;
  std::int64_t tag = 0;
  for (const auto& p : result.explored) {
    if (p.feasible) {
      front.insert({p.weighted_accuracy, p.total_runs, tag});
    }
    ++tag;
  }
  std::cout << "  Pareto frontier:\n";
  for (const auto& p : front.front()) {
    std::cout << "    acc=" << fmt_pct(p.accuracy)
              << "  runs=" << fmt_millions(p.runs) << "\n";
  }
}

void print_best_solution(const std::string& label, const FrontierRun& run) {
  std::cout << "\n  " << label << ":\n";
  TablePrinter t({"Level", "Sparsity", "RT3 acc", "Heuristic acc", "UB acc"});
  for (std::size_t i = 0; i < run.result.levels.size(); ++i) {
    const auto& sub = run.result.levels[i];
    t.add_row({sub.level_name, fmt_pct(sub.overall_sparsity),
               fmt_pct(sub.accuracy), fmt_pct(run.heuristic_acc[i]),
               fmt_pct(run.ub_acc[i])});
  }
  std::cout << t.str();
  std::cout << "  original (dense) acc: "
            << fmt_pct(run.result.original_accuracy)
            << " | BP-only backbone acc: "
            << fmt_pct(run.result.backbone_accuracy) << "\n";
}

}  // namespace

int main() {
  using namespace rt3;
  bench::print_header("Fig. 3 - search space exploration",
                      "paper Fig. 3(a) Pareto frontiers, (b) P_L, (c) P_T");

  const FrontierRun loose = explore(104.0, 51, /*episodes=*/4);
  const FrontierRun tight = explore(94.0, 51, /*episodes=*/4);

  std::cout << "(a) Pareto frontiers\n";
  print_frontier("Loose (104 ms)", loose.result);
  print_frontier("Tight (94 ms)", tight.result);

  std::cout << "\n(b) Best solution under the LOOSE constraint (P_L)";
  print_best_solution("P_L", loose);
  std::cout << "\n(c) Best solution under the TIGHT constraint (P_T)";
  print_best_solution("P_T", tight);

  // Coverage check: the loose frontier should dominate-or-match the tight
  // one (paper: "the Pareto frontier [of the loose constraint] covers the
  // one with tight constraint").
  double best_loose = 0.0;
  double best_tight = 0.0;
  for (const auto& p : loose.result.explored) {
    if (p.feasible) {
      best_loose = std::max(best_loose, p.weighted_accuracy);
    }
  }
  for (const auto& p : tight.result.explored) {
    if (p.feasible) {
      best_tight = std::max(best_tight, p.weighted_accuracy);
    }
  }
  std::cout << "\nShape check: best loose-constraint accuracy ("
            << fmt_pct(best_loose) << ") >= best tight-constraint accuracy ("
            << fmt_pct(best_tight)
            << ") -> looser deadlines admit denser, more accurate models.\n";
  return 0;
}
