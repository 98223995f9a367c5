// Quickstart: the RT3 API in ~80 lines.
//
//   1. Train a small Transformer LM on the synthetic WikiText-2 analog.
//   2. Level 1: block-structured pruning -> fixed backbone.
//   3. Level 2: build two pattern sets of different sparsity.
//   4. Switch between them at "run time" and watch sparsity, modeled
//      mobile latency and accuracy move together.
//
// Build & run:  cmake -B build -G Ninja && cmake --build build
//               ./build/examples/quickstart
#include <iostream>

#include "common/table.hpp"
#include "core/pipeline.hpp"
#include "runtime/engine.hpp"

int main() {
  using namespace rt3;
  std::cout << "RT3 quickstart\n==============\n";

  // 1. Data + model + pre-training.
  CorpusConfig corpus_cfg;
  corpus_cfg.vocab_size = 64;
  corpus_cfg.num_tokens = 8000;
  corpus_cfg.rule_strength = 0.96;
  const Corpus corpus(corpus_cfg);

  TransformerLmConfig model_cfg;
  model_cfg.vocab_size = 64;
  model_cfg.d_model = 32;
  model_cfg.num_heads = 4;
  model_cfg.ffn_hidden = 64;
  TransformerLm model(model_cfg);
  LmTrainingTask task(model, corpus);

  TrainConfig pretrain;
  pretrain.steps = 200;
  pretrain.batch = 12;
  pretrain.seq_len = 16;
  pretrain.lr = 8e-3F;
  const double dense_acc = train(task, pretrain);
  std::cout << "dense model accuracy: " << fmt_pct(dense_acc) << "\n";

  // 2. Level 1: block-structured pruning (Algorithm 1) + recovery.
  ModelPruner pruner(model.prunable());
  BpConfig bp;
  bp.num_blocks = 4;
  bp.prune_fraction = 0.4;
  pruner.apply_bp(bp);
  TrainConfig recover = pretrain;
  recover.steps = 80;
  const double backbone_acc = train(task, recover);
  std::cout << "backbone (BP " << fmt_pct(pruner.overall_sparsity())
            << " sparse) accuracy: " << fmt_pct(backbone_acc) << "\n";

  // 3. Level 2: two pattern sets built from backbone importance.
  Rng rng(7);
  std::vector<PatternSet> sets;
  sets.push_back(pattern_set_from_layers(pruner.layers(), 8, 0.45, 4, rng));
  sets.push_back(pattern_set_from_layers(pruner.layers(), 8, 0.75, 4, rng));
  const JointTrainResult joint = joint_train(task, pruner, sets, recover);

  // 4. Run-time switching with modeled mobile latency.
  const ModelSpec spec = ModelSpec::paper_transformer();
  const LatencyModel latency = paper_transformer_latency();
  ReconfigEngine engine(pruner, sets, SwitchCostModel(), spec, 100);

  TablePrinter t({"mode", "overall sparsity", "latency@1.4GHz",
                  "latency@800MHz", "accuracy", "switch cost"});
  const std::vector<std::string> names = {"high-accuracy", "energy-saver"};
  for (std::int64_t i = 0; i < engine.num_levels(); ++i) {
    const SwitchReport report = engine.switch_to(i);
    const double s = pruner.overall_sparsity();
    t.add_row({names[static_cast<std::size_t>(i)], fmt_pct(s),
               fmt_f(latency.latency_ms(spec, s, ExecMode::kPattern, 1400.0), 1) + " ms",
               fmt_f(latency.latency_ms(spec, s, ExecMode::kPattern, 800.0), 1) + " ms",
               fmt_pct(joint.per_set_accuracy[static_cast<std::size_t>(i)]),
               fmt_f(report.modeled_ms, 2) + " ms"});
  }
  std::cout << "\n" << t.str();
  std::cout << "\nThe backbone stayed resident the whole time; each switch "
               "moved only a pattern set (milliseconds), not the model "
               "(tens of seconds).\n";
  return 0;
}
