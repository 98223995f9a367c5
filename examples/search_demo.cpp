// End-to-end RT3 search demo: runs the full two-level pipeline (Fig. 1)
// on the WikiText-2 analog, prints each explored episode, the selected
// sub-models, and saves/loads the deployment package.
#include <cstdio>
#include <iostream>

#include "common/table.hpp"
#include "core/pipeline.hpp"

int main() {
  using namespace rt3;
  std::cout << "RT3 end-to-end search demo\n==========================\n";

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

  TrainConfig pre;
  pre.steps = 200;
  pre.batch = 12;
  pre.seq_len = 16;
  pre.lr = 8e-3F;
  train(task, pre);

  Rt3Options options;
  options.timing_constraint_ms = 104.0;
  options.episodes = 5;
  options.bp.num_blocks = 4;
  options.bp.prune_fraction = 0.35;
  options.space.psize = 8;
  options.space.patterns_per_set = 4;
  options.space.num_variants = 2;
  options.episode_train.steps = 14;
  options.episode_train.batch = 8;
  options.episode_train.seq_len = 16;
  options.final_train.steps = 80;
  options.final_train.batch = 8;
  options.final_train.seq_len = 16;
  options.backbone_train.steps = 50;
  options.backbone_train.batch = 8;
  options.backbone_train.seq_len = 16;

  Rt3Pipeline pipeline(task, options);
  const Rt3Result result = pipeline.run();

  std::cout << "\noriginal accuracy : " << fmt_pct(result.original_accuracy)
            << "\nbackbone accuracy : " << fmt_pct(result.backbone_accuracy)
            << " at " << fmt_pct(result.backbone_sparsity) << " sparsity\n";

  std::cout << "\nexplored episodes:\n";
  for (std::size_t i = 0; i < result.explored.size(); ++i) {
    const auto& p = result.explored[i];
    std::cout << "  episode " << i << ": reward=" << fmt_f(p.reward, 3)
              << " weighted_acc=" << fmt_pct(p.weighted_accuracy)
              << " runs=" << fmt_millions(p.total_runs) << "M"
              << (p.feasible ? "" : " [infeasible]") << "\n";
  }

  std::cout << "\nselected deployment (T = "
            << fmt_f(options.timing_constraint_ms, 0) << " ms):\n";
  TablePrinter t({"level", "freq", "sparsity", "latency", "accuracy",
                  "runs(1e6)"});
  for (const auto& sub : result.levels) {
    t.add_row({sub.level_name, fmt_f(sub.freq_mhz, 0) + " MHz",
               fmt_pct(sub.overall_sparsity), fmt_f(sub.latency_ms, 2) + " ms",
               fmt_pct(sub.accuracy), fmt_millions(sub.runs)});
  }
  std::cout << t.str();

  std::cout << "\nswitch costs: full model reload "
            << fmt_f(result.model_switch_ms / 1000.0, 1) << " s vs pattern set "
            << fmt_f(result.pattern_switch_ms, 2) << " ms (modeled), "
            << fmt_f(result.pattern_switch_wall_ms, 2)
            << " ms (measured mask recomposition on this host)\n";

  // Package, save, reload.
  const DeploymentPackage pkg = pipeline.package(result);
  const std::string path = "/tmp/rt3_demo_package.bin";
  pkg.save(path);
  const DeploymentPackage loaded = DeploymentPackage::load(path);
  std::cout << "\ndeployment package: " << loaded.params.size()
            << " tensors, " << loaded.pattern_sets.size()
            << " pattern sets, resident "
            << loaded.resident_bytes() / 1024 << " KiB, largest switch "
            << loaded.switch_bytes(0) << " B -> saved and reloaded OK\n";
  std::remove(path.c_str());
  return 0;
}
