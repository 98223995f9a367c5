// Battery discharge simulation: a full battery drains while a governor
// steps the V/F ladder down and RT3 swaps pattern sets to keep meeting the
// deadline (the paper's Table II scenario as an interactive run).
//
// Compares three strategies over identical batteries:
//   A. no reconfiguration (F-mode until empty),
//   B. DVFS only (misses deadlines at low frequencies),
//   C. DVFS + pattern-set switching (RT3).
#include <iostream>

#include "common/table.hpp"
#include "dvfs/dvfs.hpp"
#include "perf/latency_model.hpp"
#include "runtime/engine.hpp"

int main() {
  using namespace rt3;
  std::cout << "RT3 battery discharge simulation\n"
            << "================================\n";

  const VfTable table = VfTable::odroid_xu3_a7();
  const PowerModel power;
  const ModelSpec spec = ModelSpec::paper_transformer();
  const LatencyModel latency = paper_transformer_latency();

  const double kT = 115.0;
  const double capacity = 5e4;  // mJ; scaled battery for a fast run

  // Sub-model sparsities per mode for strategy C: just meet T.
  std::vector<double> adaptive;
  for (std::int64_t li : {5, 3, 2}) {
    adaptive.push_back(std::max(
        0.6426, latency.sparsity_for_latency(spec, ExecMode::kPattern,
                                             table.level(li).freq_mhz, kT)));
  }

  DischargeConfig cfg;
  cfg.battery_capacity_mj = capacity;
  cfg.timing_constraint_ms = kT;

  // A: single level, single model.
  cfg.software_reconfig = false;
  const DischargeStats a =
      simulate_discharge(cfg, table, Governor::equal_tranches({5}), power,
                         latency, spec, {0.6426}, ExecMode::kBlock);

  // B: DVFS only.
  const DischargeStats b = simulate_discharge(
      cfg, table, Governor::equal_tranches({5, 3, 2}), power, latency, spec,
      {0.6426, 0.6426, 0.6426}, ExecMode::kBlock);

  // C: DVFS + software reconfiguration.
  cfg.software_reconfig = true;
  const DischargeStats c = simulate_discharge(
      cfg, table, Governor::equal_tranches({5, 3, 2}), power, latency, spec,
      adaptive, ExecMode::kPattern);

  TablePrinter t({"strategy", "runs", "deadline misses", "switches",
                  "active time (s)", "runs vs A"});
  t.add_row({"A: no reconfig", fmt_f(a.total_runs, 0),
             fmt_f(a.deadline_misses, 0), "0",
             fmt_f(a.simulated_seconds, 1), "-"});
  t.add_row({"B: DVFS only", fmt_f(b.total_runs, 0),
             fmt_f(b.deadline_misses, 0), std::to_string(b.switches),
             fmt_f(b.simulated_seconds, 1), fmt_x(b.total_runs / a.total_runs)});
  t.add_row({"C: DVFS + RT3", fmt_f(c.total_runs, 0),
             fmt_f(c.deadline_misses, 0), std::to_string(c.switches),
             fmt_f(c.simulated_seconds, 1), fmt_x(c.total_runs / a.total_runs)});
  std::cout << "\n" << t.str();

  std::cout << "\nPer-level runs with RT3 (F/N/E): ";
  for (double runs : c.runs_per_level) {
    std::cout << fmt_f(runs, 0) << " ";
  }
  std::cout << "\n\nDVFS alone stretches the battery but breaks the "
            << fmt_f(kT, 0)
            << " ms deadline at low frequency; adding RT3's pattern-set "
               "switch keeps every inference on time while running the "
               "battery even longer (paper Table II).\n";
  return 0;
}
