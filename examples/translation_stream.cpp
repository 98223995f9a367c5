// Software-only reconfiguration: the paper's intro scenario of "local
// language translation for on-line interactive events with a fluctuating
// network bandwidth".
//
// The device stays at one V/F level, but the per-request deadline moves
// with network conditions (tight deadline when the link is slow and the
// local model must answer fast).  RT3 switches pattern sets to track the
// deadline — demonstrating that run-time reconfigurability is not tied to
// DVFS.
#include <iostream>

#include "common/rng.hpp"
#include "common/table.hpp"
#include "core/pipeline.hpp"
#include "runtime/engine.hpp"

int main() {
  using namespace rt3;
  std::cout << "RT3 translation-stream demo (software reconfiguration only)\n"
            << "============================================================\n";

  // Train a small LM to act as the on-device translator stand-in.
  CorpusConfig corpus_cfg;
  corpus_cfg.vocab_size = 64;
  corpus_cfg.num_tokens = 8000;
  const Corpus corpus(corpus_cfg);
  TransformerLmConfig model_cfg;
  model_cfg.vocab_size = 64;
  model_cfg.d_model = 32;
  model_cfg.num_heads = 4;
  model_cfg.ffn_hidden = 64;
  TransformerLm model(model_cfg);
  LmTrainingTask task(model, corpus);
  TrainConfig pre;
  pre.steps = 160;
  pre.batch = 12;
  pre.seq_len = 16;
  pre.lr = 8e-3F;
  train(task, pre);

  ModelPruner pruner(model.prunable());
  BpConfig bp;
  bp.num_blocks = 4;
  bp.prune_fraction = 0.35;
  pruner.apply_bp(bp);
  TrainConfig recover = pre;
  recover.steps = 60;
  train(task, recover);

  // Three pattern sets: relaxed / normal / tight deadlines.
  Rng rng(3);
  std::vector<PatternSet> sets;
  for (double s : {0.3, 0.6, 0.85}) {
    sets.push_back(pattern_set_from_layers(pruner.layers(), 8, s, 4, rng));
  }
  joint_train(task, pruner, sets, recover);

  const ModelSpec spec = ModelSpec::paper_transformer();
  const LatencyModel latency = paper_transformer_latency();
  ReconfigEngine engine(pruner, sets, SwitchCostModel(), spec, 100);

  // Device pinned at N-mode (l4, 1000 MHz); the deadline fluctuates.
  const double freq = 1000.0;
  Rng net(17);
  double bandwidth_mbps = 12.0;

  // Per-level composed sparsities, read once up front from the engine's
  // stored masks (sparsity_at does not switch the engine).
  std::vector<double> level_sparsity;
  for (std::int64_t i = 0; i < engine.num_levels(); ++i) {
    level_sparsity.push_back(engine.sparsity_at(i));
  }

  TablePrinter t({"t(s)", "bandwidth", "deadline", "set", "sparsity",
                  "latency", "on time", "switch"});
  std::int64_t switches = 0;
  for (int tick = 0; tick < 12; ++tick) {
    // Random-walk bandwidth: slow link -> tighter local deadline.
    bandwidth_mbps =
        std::clamp(bandwidth_mbps + net.normal(0.0, 4.0), 1.0, 24.0);
    const double deadline_ms = 60.0 + bandwidth_mbps * 8.0;

    // Pick the densest set that meets the deadline at this frequency.
    std::int64_t choice = engine.num_levels() - 1;
    for (std::int64_t i = 0; i < engine.num_levels(); ++i) {
      const double s = level_sparsity[static_cast<std::size_t>(i)];
      if (latency.latency_ms(spec, s, ExecMode::kPattern, freq) <=
          deadline_ms) {
        choice = i;
        break;
      }
    }
    const SwitchReport report = engine.switch_to(choice);
    switches += (report.from_level != report.to_level &&
                 report.from_level >= 0)
                    ? 1
                    : 0;
    const double s = pruner.overall_sparsity();
    const double lat = latency.latency_ms(spec, s, ExecMode::kPattern, freq);
    t.add_row({std::to_string(tick), fmt_f(bandwidth_mbps, 1) + " Mbps",
               fmt_f(deadline_ms, 0) + " ms", std::to_string(choice),
               fmt_pct(s), fmt_f(lat, 1) + " ms",
               lat <= deadline_ms ? "Y" : "N",
               report.from_level != report.to_level && report.from_level >= 0
                   ? fmt_f(report.modeled_ms, 1) + " ms"
                   : "-"});
  }
  std::cout << "\n" << t.str();
  std::cout << "\n" << switches
            << " pattern-set switches tracked the fluctuating deadline with "
               "no DVFS change and no model reload — the generalization the "
               "paper's introduction calls out.\n";
  return 0;
}
