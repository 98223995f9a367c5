// Reproduces paper Fig. 5: block-structured pruning alone on the nine GLUE
// tasks (DistilBERT analog) and WikiText-2 (Transformer analog).
//
// For each task: original score (white bar), BP score (black bar), and the
// compression rate annotation.  Paper's per-task rates range 1.2x-2.8x with
// an average accuracy loss of 1.74%.
#include <iostream>

#include "bench_util.hpp"
#include "common/table.hpp"
#include "pruning/model_pruner.hpp"

namespace {

using namespace rt3;

// Per-task compression rates annotated in the paper's Fig. 5.
struct TaskPlan {
  GlueTask task;
  double paper_rate;  // e.g. 2.0 means 2x compression
};

constexpr TaskPlan kPlans[] = {
    {GlueTask::kMnli, 1.7}, {GlueTask::kQqp, 2.0},  {GlueTask::kQnli, 2.0},
    {GlueTask::kSst2, 1.7}, {GlueTask::kCola, 1.7}, {GlueTask::kStsB, 1.2},
    {GlueTask::kMrpc, 2.0}, {GlueTask::kRte, 1.2},  {GlueTask::kWnli, 2.8},
};

}  // namespace

int main() {
  using namespace rt3;
  bench::print_header("Fig. 5 - block-structured pruning across GLUE",
                      "paper Fig. 5: original vs BP score, rate annotations");

  TablePrinter t({"Task", "Metric", "Rate", "Original", "BP", "Loss"});
  double total_loss = 0.0;
  int count = 0;

  for (const TaskPlan& plan : kPlans) {
    bench::Workload w = bench::make_glue_workload(plan.task, 70 + count);
    ModelPruner pruner(w.task->prunable());
    BpConfig bp;
    bp.num_blocks = 4;
    bp.prune_fraction = 1.0 - 1.0 / plan.paper_rate;
    pruner.apply_bp(bp);
    TrainConfig ft;
    ft.steps = 80;
    ft.batch = 16;
    ft.lr = 5e-3F;
    const double bp_score = train(*w.task, ft);
    const double loss = w.dense_score - bp_score;
    total_loss += loss;
    ++count;
    t.add_row({GlueDataset::task_name(plan.task),
               GlueDataset::metric_name(w.data->metric()),
               fmt_x(plan.paper_rate, 1), fmt_pct(w.dense_score),
               fmt_pct(bp_score), fmt_pct(loss)});
  }

  // WikiText-2 analog (paper annotates 2x on WikiText-2).
  {
    bench::Workload w = bench::make_lm_workload(80);
    ModelPruner pruner(w.task->prunable());
    BpConfig bp;
    bp.num_blocks = 4;
    bp.prune_fraction = 0.5;
    pruner.apply_bp(bp);
    TrainConfig ft;
    ft.steps = 80;
    ft.batch = 12;
    ft.seq_len = 16;
    ft.lr = 8e-3F;
    const double bp_acc = train(*w.task, ft);
    const double loss = w.dense_score - bp_acc;
    total_loss += loss;
    ++count;
    t.add_row({"WikiText-2", "accuracy", "2.0x", fmt_pct(w.dense_score),
               fmt_pct(bp_acc), fmt_pct(loss)});
  }

  std::cout << t.str();
  std::cout << "\nAverage loss across tasks: "
            << fmt_pct(total_loss / count)
            << "  (paper: up to 2x compression with 1.74% average loss)\n"
            << "Shape check: BP at the paper's per-task rates keeps scores "
               "close to the originals on every task.\n";
  return 0;
}
