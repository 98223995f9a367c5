// Measured-vs-analytic execution bench: per-level batch latency under
// both backends, PlanCache swap wall time, calibration fit quality, and
// one end-to-end measured burst serve session.
//
// Emits a human table on stdout and machine-readable BENCH_exec.json so
// the perf trajectory tracks the real execution path from this PR on.
//
//   bench_exec_backend [OUT.json] [REPEATS]
//
// REPEATS (default 5) sizes every median; CI smoke runs with REPEATS=1.
#include <algorithm>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/table.hpp"
#include "common/text_fields.hpp"
#include "exec/analytic_backend.hpp"
#include "exec/calibrator.hpp"
#include "exec/measured_backend.hpp"
#include "exec/simd.hpp"
#include "perf/latency_model.hpp"
#include "pruning/model_pruner.hpp"
#include "pruning/pattern_prune.hpp"
#include "serve/server.hpp"
#include "serve/session.hpp"
#include "serve/traffic.hpp"

namespace {

using namespace rt3;

double median(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  return xs[xs.size() / 2];
}

// Min-of-many wall time for one (layer, level-0) plan under the CURRENT
// forced ISA, on the calling thread alone.  Min, not median: contention
// only ever adds time.
double min_layer_ms(MeasuredBackend& backend, std::int64_t layer,
                    std::int64_t batch, std::int64_t iters) {
  // The backend's launch defaults; tuning is ignored here.
  const KernelOptions& opts = backend.config().kernel;
  double best = 1e300;
  for (std::int64_t i = 0; i < iters; ++i) {
    best = std::min(best,
                    backend.time_layer_on_caller_ms(layer, 0, batch, opts));
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path =
      argc > 1 ? argv[1] : std::string("BENCH_exec.json");
  std::int64_t repeats = 5;
  if (argc > 2) {
    try {
      repeats = parse_int("bench_exec_backend: REPEATS", argv[2]);
      check(repeats >= 1, "bench_exec_backend: REPEATS must be >= 1");
    } catch (const CheckError& e) {
      std::cerr << "error: " << e.what() << "\n";
      return 2;
    }
  }

  std::cout << "\n=== exec: measured kernels vs analytic model ===\n"
            << "Pattern-mode kernels over a 3-layer 96x96 backbone, one\n"
            << "pattern set per {l6,l4,l3} ladder level, " << repeats
            << " repeat(s) per point.\n\n";

  // Backbone + per-level pattern sets (denser set at the faster level).
  Rng rng(31);
  std::vector<std::unique_ptr<Linear>> owned;
  std::vector<Linear*> layers;
  for (int i = 0; i < 3; ++i) {
    owned.push_back(std::make_unique<Linear>(96, 96, rng));
    layers.push_back(owned.back().get());
  }
  ModelPruner pruner(layers);
  BpConfig bp;
  bp.num_blocks = 4;
  bp.prune_fraction = 0.25;
  pruner.apply_bp(bp);
  std::vector<PatternSet> sets;
  for (double s : {0.25, 0.5, 0.75}) {
    sets.push_back(random_pattern_set(4, s, 2, rng));
  }

  const VfTable table = VfTable::odroid_xu3_a7();
  std::vector<double> freqs;
  for (std::int64_t li : paper_serve_ladder()) {
    freqs.push_back(table.level(li).freq_mhz);
  }
  MeasuredBackendConfig mcfg;
  mcfg.mode = ExecMode::kPattern;
  mcfg.threads = 2;
  MeasuredBackend measured(mcfg, layers, pruner.backbone_masks(), sets,
                           freqs);
  measured.auto_scale(0.8 * 115.0);

  const LatencyModel latency = paper_transformer_latency();
  const AnalyticBackend analytic(latency, ModelSpec::paper_transformer(),
                                 ExecMode::kPattern, freqs,
                                 paper_ladder_sparsities(latency, 115.0));

  TablePrinter t({"level", "freq (MHz)", "analytic b2 (ms)",
                  "measured wall b2 (ms)", "measured virt b2 (ms)",
                  "plan swap (ms)"});
  std::string levels_json;
  for (std::int64_t pos = 0; pos < 3; ++pos) {
    // Swap wall time measured on a real transition (cycle away first).
    std::vector<double> swap_walls;
    for (std::int64_t rep = 0; rep < repeats; ++rep) {
      measured.activate_level((pos + 1) % 3);
      swap_walls.push_back(measured.activate_level(pos));
    }
    measured.run_batch(2, pos);  // warm
    std::vector<double> walls;
    std::vector<double> virts;
    for (std::int64_t rep = 0; rep < repeats; ++rep) {
      const BatchExecution exec = measured.run_batch(2, pos);
      walls.push_back(exec.kernel_wall_ms);
      virts.push_back(exec.latency_ms);
    }
    const double analytic_ms = analytic.batch_latency_ms(2, pos);
    const double wall = median(walls);
    const double virt = median(virts);
    const double swap = median(swap_walls);
    const std::string name =
        table.level(paper_serve_ladder()[static_cast<std::size_t>(pos)]).name;
    t.add_row({name, fmt_f(freqs[static_cast<std::size_t>(pos)], 0),
               fmt_f(analytic_ms, 2), fmt_f(wall, 4), fmt_f(virt, 2),
               fmt_f(swap, 5)});
    levels_json += std::string(pos == 0 ? "" : ",\n") +
                   "    {\"level\": \"" + name +
                   "\", \"freq_mhz\": " + std::to_string(freqs[static_cast<std::size_t>(pos)]) +
                   ", \"analytic_batch2_ms\": " + std::to_string(analytic_ms) +
                   ", \"measured_wall_batch2_ms\": " + std::to_string(wall) +
                   ", \"measured_virtual_batch2_ms\": " + std::to_string(virt) +
                   ", \"plan_swap_wall_ms\": " + std::to_string(swap) + "}";
  }
  std::cout << t.str() << "\n";

  // SIMD-vs-scalar kernel speedup per family at level 0: the same plan is
  // timed under a forced-scalar table and under the detected ISA, so the
  // ratio is pure vectorization win (outputs are bitwise identical either
  // way).  Median across the 3 layers of per-layer min-of-many ratios,
  // every call on the calling thread alone (no pool) so the ratio is not
  // polluted by scheduling.
  const SimdIsa detected = detect_simd_isa();
  const std::int64_t speed_batch = 32;
  const std::int64_t speed_iters = std::max<std::int64_t>(12, repeats * 8);
  TablePrinter st({"family", "scalar (ms)", simd_isa_name(detected) +
                                                std::string(" (ms)"),
                   "speedup"});
  std::string speed_json;
  const ExecMode speed_modes[] = {ExecMode::kDense, ExecMode::kBlock,
                                  ExecMode::kPattern, ExecMode::kIrregular};
  for (ExecMode mode : speed_modes) {
    MeasuredBackendConfig kcfg;
    kcfg.mode = mode;
    kcfg.threads = 1;
    kcfg.max_batch = std::max<std::int64_t>(kcfg.max_batch, speed_batch);
    const bool wants_set =
        mode == ExecMode::kPattern || mode == ExecMode::kIrregular;
    const std::vector<PatternSet> level_sets =
        wants_set ? std::vector<PatternSet>{sets.front()}
                  : std::vector<PatternSet>{};
    MeasuredBackend kb(kcfg, layers, pruner.backbone_masks(), level_sets,
                       {1000.0});
    kb.run_batch(1, 0);  // warm caches + pool
    std::vector<double> ratios, scalars, simds;
    for (std::int64_t li = 0; li < 3; ++li) {
      set_simd_isa(SimdIsa::kScalar);
      const double scalar_ms = min_layer_ms(kb, li, speed_batch, speed_iters);
      set_simd_isa(detected);
      const double simd_ms = min_layer_ms(kb, li, speed_batch, speed_iters);
      scalars.push_back(scalar_ms);
      simds.push_back(simd_ms);
      ratios.push_back(scalar_ms / simd_ms);
    }
    const double scalar_med = median(scalars);
    const double simd_med = median(simds);
    const double speedup = median(ratios);
    const char* fam = exec_mode_name(mode);
    st.add_row({fam, fmt_f(scalar_med, 5), fmt_f(simd_med, 5),
                fmt_f(speedup, 2) + "x"});
    speed_json += std::string(speed_json.empty() ? "" : ",\n") +
                  "      \"" + fam + "\": {\"scalar_ms\": " +
                  std::to_string(scalar_med) +
                  ", \"simd_ms\": " + std::to_string(simd_med) +
                  ", \"speedup\": " + std::to_string(speedup) + "}";
  }
  std::cout << "kernel speedup vs forced-scalar ("
            << simd_isa_name(detected) << ", batch " << speed_batch
            << ", level 0, median of per-layer ratios):\n"
            << st.str() << "\n";

  // Calibration fit over the same layers.
  CalibratorConfig ccfg;
  ccfg.batch_sizes = {1, 2, 4, 8};
  ccfg.repeats = std::max<std::int64_t>(1, std::min<std::int64_t>(repeats, 3));
  const CalibrationResult cal =
      Calibrator(ccfg).run(mcfg, layers, pruner.backbone_masks(), sets);
  std::cout << "calibrated fit: macs/cycle " << fmt_f(cal.fitted.macs_per_cycle, 1)
            << ", fixed cycles " << fmt_f(cal.fitted.fixed_cycles, 0)
            << ", block overhead " << fmt_f(cal.fitted.block_overhead, 3)
            << ", pattern overhead " << fmt_f(cal.fitted.pattern_overhead, 3)
            << ", mean |rel err| " << fmt_pct(cal.mean_abs_rel_error) << "\n\n";

  // End-to-end burst serve session on the measured backend.
  ServeSessionConfig scfg;
  scfg.backend = ExecBackendKind::kMeasured;
  scfg.shed_expired = true;
  ServeSession session(scfg);
  TrafficConfig tcfg;
  tcfg.scenario = TrafficScenario::kBurst;
  tcfg.rate_rps = 3.0;
  tcfg.duration_ms = repeats > 1 ? 60'000.0 : 15'000.0;
  tcfg.deadline_slack_ms = 350.0;
  const ServerStats stats = session.server().serve(generate_traffic(tcfg));
  std::cout << "measured burst session:\n" << stats.summary();

  std::string json = "{\n  \"levels\": [\n" + levels_json + "\n  ],\n";
  json += "  \"kernel_speedup\": {\n    \"isa\": \"" +
          std::string(simd_isa_name(detected)) +
          "\",\n    \"batch\": " + std::to_string(speed_batch) +
          ",\n    \"families\": {\n" + speed_json + "\n    }\n  },\n";
  json += "  \"plan_build_wall_ms\": " +
          std::to_string(measured.plans().build_wall_ms()) + ",\n";
  json += "  \"calibration\": {\"macs_per_cycle\": " +
          std::to_string(cal.fitted.macs_per_cycle) +
          ", \"fixed_cycles\": " + std::to_string(cal.fitted.fixed_cycles) +
          ", \"block_overhead\": " + std::to_string(cal.fitted.block_overhead) +
          ", \"pattern_overhead\": " +
          std::to_string(cal.fitted.pattern_overhead) +
          ", \"mean_abs_rel_error\": " +
          std::to_string(cal.mean_abs_rel_error) + "},\n";
  json += "  \"serve_measured_burst\": " + stats.to_json() + "\n}\n";
  std::ofstream out(out_path);
  out << json;
  out.close();
  std::cout << "\nwrote " << out_path << "\n"
            << "Plan swaps are pointer reassignments (microseconds) while\n"
            << "the per-level plans were compiled once up front — the\n"
            << "kernel-level analogue of the paper's ms-scale pattern-set\n"
            << "switch vs. minute-scale model reload.\n";
  return 0;
}
