// Reproduces paper Table IV: ablation of the two RT3 levels on the
// WikiText-2, RTE and STS-B analogs.
//
// Columns: No-Opt (dense), rBP only (random block pruning), rBP+rPP
// (random blocks + random patterns), rBP+PP (random blocks + guided
// patterns), BP only (Algorithm 1), RT3 (BP + RL-searched pattern sets).
// Paper shape: BP matches rBP's runs with far less accuracy loss; PP beats
// rPP; RT3 reaches ~4.96x runs on WikiText-2 with <1% accuracy loss.
#include <iostream>

#include "bench_util.hpp"
#include "common/table.hpp"
#include "dvfs/dvfs.hpp"
#include "search/space.hpp"

namespace {

using namespace rt3;

struct MethodResult {
  std::string name;
  double avg_sparsity = 0.0;
  double runs = 0.0;
  double avg_accuracy = 0.0;
};

constexpr double kBudgetMj = 1.135e8;  // same budget scale as Table II
const std::vector<std::int64_t> kLevels = {5, 3, 2};

// Runs across the three equal energy tranches for per-level sparsities.
double runs_for(const ModelSpec& spec, const LatencyModel& latency,
                const std::vector<double>& sparsities, ExecMode mode) {
  const VfTable table = VfTable::odroid_xu3_a7();
  const PowerModel power;
  double total = 0.0;
  for (std::size_t i = 0; i < kLevels.size(); ++i) {
    const double s =
        sparsities.size() == 1 ? sparsities[0] : sparsities[i];
    const double lat = latency.latency_ms(
        spec, s, mode, table.level(kLevels[i]).freq_mhz);
    total += number_of_runs(kBudgetMj / 3.0,
                            power.power_mw(table.level(kLevels[i])), lat);
  }
  return total;
}

// Per-level target overall sparsities that just meet T.
std::vector<double> level_targets(const ModelSpec& spec,
                                  const LatencyModel& latency, double t_ms,
                                  double floor_sparsity) {
  const VfTable table = VfTable::odroid_xu3_a7();
  std::vector<double> out;
  for (std::int64_t li : kLevels) {
    out.push_back(std::max(
        floor_sparsity,
        latency.sparsity_for_latency(spec, ExecMode::kPattern,
                                     table.level(li).freq_mhz, t_ms)));
  }
  return out;
}

void print_block(const std::string& workload, double dense_score,
                 const std::vector<MethodResult>& methods) {
  std::cout << "\n--- " << workload << " ---\n";
  TablePrinter t({"Methods", "Avg. Spar.", "# runs(1e6)", "Impr.",
                  "Avg. Acc", "Acc. loss"});
  const double base_runs = methods.front().runs;
  for (const auto& m : methods) {
    t.add_row({m.name, fmt_pct(m.avg_sparsity), fmt_millions(m.runs),
               m.name == "No-Opt" ? "-" : fmt_x(m.runs / base_runs),
               fmt_pct(m.avg_accuracy),
               m.name == "No-Opt" ? "-"
                                  : fmt_pct(dense_score - m.avg_accuracy)});
  }
  std::cout << t.str();
}

// One workload's ablation rows.  `seed` seeds the random block and
// pattern choices; `ft` is every row's fine-tune.
std::vector<MethodResult> ablate(const bench::Workload& base,
                                 std::uint64_t seed, double t_ms,
                                 const TrainConfig& ft) {
  const ModelSpec spec = base.task->paper_spec();
  const LatencyModel latency = base.task->paper_latency();
  BpConfig bp;
  bp.num_blocks = 4;
  bp.prune_fraction = 0.35;

  std::vector<MethodResult> rows;

  // No-Opt.
  rows.push_back({"No-Opt", 0.0,
                  runs_for(spec, latency, {0.0}, ExecMode::kDense),
                  base.dense_score});

  // rBP only.
  {
    const auto task = base.task->clone();
    ModelPruner pruner(task->prunable());
    Rng rng(seed + 1);
    pruner.apply_random_bp(bp, rng);
    const double acc = train(*task, ft);
    const double s = pruner.overall_sparsity();
    rows.push_back({"rBP only", s,
                    runs_for(spec, latency, {s}, ExecMode::kBlock), acc});
  }

  const auto pp_row = [&](const std::string& name, bool random_backbone,
                          bool random_patterns, std::uint64_t row_seed) {
    const auto task = base.task->clone();
    ModelPruner pruner(task->prunable());
    Rng rng(row_seed);
    if (random_backbone) {
      pruner.apply_random_bp(bp, rng);
    } else {
      pruner.apply_bp(bp);
    }
    train(*task, ft);  // recover the backbone
    const double backbone_sparsity = pruner.overall_sparsity();
    const auto targets = level_targets(spec, latency, t_ms, backbone_sparsity);
    std::vector<PatternSet> sets;
    std::vector<double> sigmas;
    for (double target : targets) {
      PatternSet set =
          random_patterns
              ? random_pattern_set(8, target, 4, rng)
              : pattern_set_from_layers(pruner.layers(), 8, target, 4, rng);
      sigmas.push_back(pruner.apply_pattern_set(set));
      pruner.restore_backbone();
      sets.push_back(std::move(set));
    }
    const JointTrainResult joint = joint_train(*task, pruner, sets, ft);
    double avg_acc = 0.0;
    double avg_sparsity = 0.0;
    for (std::size_t i = 0; i < sets.size(); ++i) {
      avg_acc += joint.per_set_accuracy[i] / static_cast<double>(sets.size());
      avg_sparsity += sigmas[i] / static_cast<double>(sets.size());
    }
    rows.push_back({name, avg_sparsity,
                    runs_for(spec, latency, sigmas, ExecMode::kPattern),
                    avg_acc});
  };

  pp_row("rBP+rPP", true, true, seed + 2);
  pp_row("rBP+PP", true, false, seed + 3);

  // BP only.
  {
    const auto task = base.task->clone();
    ModelPruner pruner(task->prunable());
    pruner.apply_bp(bp);
    const double acc = train(*task, ft);
    const double s = pruner.overall_sparsity();
    rows.push_back({"BP only", s,
                    runs_for(spec, latency, {s}, ExecMode::kBlock), acc});
  }

  // RT3: full pipeline.
  {
    const auto task = base.task->clone();
    Rt3Options options = bench::bench_options(t_ms, /*episodes=*/3);
    options.bp = bp;
    Rt3Pipeline pipeline(*task, options);
    const Rt3Result result = pipeline.run();
    double avg_acc = 0.0;
    double avg_sparsity = 0.0;
    std::vector<double> sigmas;
    for (const auto& sub : result.levels) {
      avg_acc += sub.accuracy / static_cast<double>(result.levels.size());
      avg_sparsity +=
          sub.overall_sparsity / static_cast<double>(result.levels.size());
      sigmas.push_back(sub.overall_sparsity);
    }
    rows.push_back({"RT3", avg_sparsity,
                    runs_for(spec, latency, sigmas, ExecMode::kPattern),
                    avg_acc});
  }

  return rows;
}

TrainConfig fine_tune(std::int64_t steps, std::int64_t batch) {
  TrainConfig ft;
  ft.steps = steps;
  ft.batch = batch;
  ft.seq_len = 16;
  ft.lr = 5e-3F;
  return ft;
}

}  // namespace

int main() {
  using namespace rt3;
  bench::print_header("Table IV - two-level ablation",
                      "paper Table IV: No-Opt / rBP / rBP+rPP / rBP+PP / BP / RT3");

  const auto lm_rows =
      ablate(bench::make_lm_workload(21), 21, 104.0, fine_tune(60, 8));
  print_block("WikiText-2 analog (T: 104 ms)", lm_rows.front().avg_accuracy,
              lm_rows);
  const auto rte_rows = ablate(bench::make_glue_workload(GlueTask::kRte, 31),
                               31, 200.0, fine_tune(50, 16));
  print_block("RTE analog (T: 200 ms)", rte_rows.front().avg_accuracy,
              rte_rows);
  const auto stsb_rows =
      ablate(bench::make_glue_workload(GlueTask::kStsB, 41), 41, 330.0,
             fine_tune(50, 16));
  print_block("STS-B analog (T: 330 ms)", stsb_rows.front().avg_accuracy,
              stsb_rows);

  std::cout << "\nPaper Table IV shape checks:\n"
            << "  * BP matches rBP on runs but loses LESS accuracy "
               "(paper: 0.64% vs 2.03% on WikiText-2);\n"
            << "  * guided PP loses less accuracy than random rPP at equal "
               "sparsity (paper: 4.88% vs 11.07%);\n"
            << "  * RT3 reaches the largest runs improvement with small "
               "accuracy loss (paper: 4.96x, 0.95%).\n";
  return 0;
}
