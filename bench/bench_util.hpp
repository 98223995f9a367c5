// Shared workload setup for the paper-reproduction bench binaries.
//
// Every bench builds the same reduced-scale workloads (WikiText-2 analog
// LM, GLUE-analog classification/regression) with deterministic seeds, so
// rows are comparable across benches.  Paper values are printed alongside
// measured values; the claim being reproduced is the SHAPE (who wins, by
// what rough factor), not absolute numbers — see EXPERIMENTS.md.
#pragma once

#include <iostream>
#include <memory>
#include <string>

#include "core/pipeline.hpp"
#include "train/task.hpp"
#include "train/trainer.hpp"

namespace rt3::bench {

/// A pre-trained workload: the task owns the model; `corpus` (LM) or
/// `data` (GLUE) is what the task trains on.
struct Workload {
  std::unique_ptr<Corpus> corpus;
  std::unique_ptr<GlueDataset> data;
  std::unique_ptr<TrainingTask> task;
  double dense_score = 0.0;
};

/// Pre-trained WikiText-analog workload.
inline Workload make_lm_workload(std::uint64_t seed = 1,
                                 std::int64_t train_steps = 200) {
  Workload w;
  CorpusConfig ccfg;
  ccfg.vocab_size = 64;
  ccfg.num_tokens = 10000;
  ccfg.rule_strength = 0.97;
  ccfg.seed = seed;
  w.corpus = std::make_unique<Corpus>(ccfg);

  TransformerLmConfig mcfg;
  mcfg.vocab_size = 64;
  mcfg.d_model = 32;
  mcfg.num_heads = 4;
  mcfg.ffn_hidden = 64;
  mcfg.max_seq_len = 24;
  mcfg.num_encoder_layers = 2;
  mcfg.num_decoder_layers = 1;
  mcfg.seed = seed + 1;
  w.task = std::make_unique<LmTrainingTask>(
      std::make_unique<TransformerLm>(mcfg), *w.corpus);

  TrainConfig pre;
  pre.steps = train_steps;
  pre.batch = 12;
  pre.seq_len = 16;
  pre.lr = 8e-3F;
  pre.seed = seed + 2;
  w.dense_score = train(*w.task, pre);
  return w;
}

/// Pre-trained GLUE-analog workload.
inline Workload make_glue_workload(GlueTask task, std::uint64_t seed = 2,
                                   std::int64_t train_steps = 320) {
  Workload w;
  GlueTaskConfig gcfg;
  gcfg.task = task;
  gcfg.vocab_size = 160;
  gcfg.seq_len = 16;
  gcfg.train_size = 900;
  gcfg.dev_size = 300;
  gcfg.seed = seed;
  w.data = std::make_unique<GlueDataset>(gcfg);

  DistilBertConfig mcfg;
  mcfg.vocab_size = 160;
  mcfg.d_model = 32;
  mcfg.num_heads = 4;
  mcfg.ffn_hidden = 64;
  mcfg.num_layers = 2;
  mcfg.max_seq_len = 32;
  mcfg.num_outputs = w.data->is_regression() ? 1 : w.data->num_classes();
  mcfg.seed = seed + 1;
  w.task = std::make_unique<GlueTrainingTask>(
      std::make_unique<DistilBertLike>(mcfg), *w.data);

  TrainConfig pre;
  pre.steps = train_steps;
  pre.batch = 16;
  pre.lr = 5e-3F;
  pre.seed = seed + 2;
  w.dense_score = train(*w.task, pre);
  return w;
}

/// Default RT3 options sized for bench runtimes (a few seconds per run).
inline Rt3Options bench_options(double timing_constraint_ms,
                                std::int64_t episodes = 4) {
  Rt3Options o;
  o.timing_constraint_ms = timing_constraint_ms;
  o.episodes = episodes;
  o.energy_budget_mj = 1.135e8;  // paper-scale budget (Table II anchor)
  o.bp.num_blocks = 4;
  o.bp.prune_fraction = 0.35;
  o.space.psize = 8;
  o.space.patterns_per_set = 4;
  o.space.num_variants = 2;
  o.episode_train.steps = 16;
  o.episode_train.batch = 8;
  o.episode_train.seq_len = 16;
  o.episode_train.lr = 5e-3F;
  o.final_train.steps = 80;
  o.final_train.batch = 8;
  o.final_train.seq_len = 16;
  o.final_train.lr = 5e-3F;
  o.backbone_train.steps = 60;
  o.backbone_train.batch = 8;
  o.backbone_train.seq_len = 16;
  o.backbone_train.lr = 5e-3F;
  return o;
}

/// Accuracy upper bound (Table III "UB"): train one model copy per pattern
/// set individually, instead of the shared joint backbone.
inline std::vector<double> ub_accuracies(const TrainingTask& trained,
                                         const BpConfig& bp,
                                         const std::vector<PatternSet>& sets,
                                         const TrainConfig& cfg) {
  std::vector<double> accs;
  for (const auto& set : sets) {
    const std::unique_ptr<TrainingTask> clone = trained.clone();
    ModelPruner pruner(clone->prunable());
    pruner.apply_bp(bp);
    pruner.apply_pattern_set(set);
    accs.push_back(train(*clone, cfg));
  }
  return accs;
}

inline void print_header(const std::string& title, const std::string& paper_ref) {
  std::cout << "\n=== " << title << " ===\n"
            << "Reproduces: " << paper_ref << "\n"
            << "(accuracy cells: reduced-scale trained models; latency/energy"
               " cells: calibrated analytic models at paper scale)\n\n";
}

}  // namespace rt3::bench
