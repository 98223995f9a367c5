// Reproduces paper Table II: three deployment strategies under a 115 ms
// timing constraint and a fixed energy budget —
//   E1: one model, F-mode only (no reconfiguration),
//   E2: one model, DVFS across F/N/E modes (hardware-only),
//   E3: per-mode sub-models sized to meet T (hardware + software).
// Paper numbers: E2 = +17.30% runs over E1 but misses deadlines at N/E;
// E3 = 1.78x runs over E1 with all deadlines met.
#include <iostream>

#include "bench_util.hpp"
#include "common/table.hpp"
#include "dvfs/dvfs.hpp"
#include "perf/latency_model.hpp"
#include "runtime/engine.hpp"

int main() {
  using namespace rt3;
  bench::print_header("Table II - HW vs HW+SW reconfiguration",
                      "paper Table II (T = 115 ms)");

  const VfTable table = VfTable::odroid_xu3_a7();
  const PowerModel power;
  const ModelSpec spec = ModelSpec::paper_transformer();
  // Anchor: the BP-only model M1 (64.26% sparsity) at F-mode = 114.59 ms.
  const LatencyModel latency = paper_transformer_latency();
  const double m1_sparsity = 0.6426;

  const double kT = 115.0;
  const double budget_mj = 1.135e8;  // sized so E1 lands near the paper's 1.53e6 runs
  const std::vector<std::int64_t> modes = {5, 3, 2};  // F, N, E
  const std::vector<std::string> mode_names = {"F-Mode", "N-Mode", "E-Mode"};

  // Per-mode sub-model sparsities for E3: just meet T at each frequency.
  std::vector<double> e3_sparsity;
  for (std::int64_t li : modes) {
    e3_sparsity.push_back(std::max(
        m1_sparsity, latency.sparsity_for_latency(
                         spec, ExecMode::kPattern, table.level(li).freq_mhz,
                         kT)));
  }

  const auto runs_at = [&](std::int64_t li, double sparsity, ExecMode mode,
                           double energy) {
    const double lat =
        latency.latency_ms(spec, sparsity, mode, table.level(li).freq_mhz);
    return number_of_runs(energy, power.power_mw(table.level(li)), lat);
  };

  // E1: everything at F-mode.
  const double e1_runs = runs_at(5, m1_sparsity, ExecMode::kBlock, budget_mj);

  // E2/E3: budget in three equal tranches (the governor's equal tranches).
  double e2_runs = 0.0;
  double e3_runs = 0.0;
  for (std::size_t i = 0; i < modes.size(); ++i) {
    e2_runs += runs_at(modes[i], m1_sparsity, ExecMode::kBlock,
                       budget_mj / 3.0);
    e3_runs += runs_at(modes[i], e3_sparsity[i], ExecMode::kPattern,
                       budget_mj / 3.0);
  }

  TablePrinter t({"App.", "Model", "DVFS", "Lat. (ms)", "Sat.", "# runs(1e6)",
                  "Imp"});
  t.add_row({"E1", "M1", "F-Mode",
             fmt_f(latency.latency_ms(spec, m1_sparsity, ExecMode::kBlock,
                                      1400.0),
                   2),
             "Y", fmt_millions(e1_runs), "-"});
  t.add_separator();
  for (std::size_t i = 0; i < modes.size(); ++i) {
    const double lat = latency.latency_ms(spec, m1_sparsity, ExecMode::kBlock,
                                          table.level(modes[i]).freq_mhz);
    t.add_row({i == 0 ? "E2" : "", "M1", mode_names[i], fmt_f(lat, 2),
               lat <= kT ? "Y" : "N",
               i == 0 ? fmt_millions(e2_runs) : "",
               i == 0 ? fmt_pct(e2_runs / e1_runs - 1.0) : ""});
  }
  t.add_separator();
  for (std::size_t i = 0; i < modes.size(); ++i) {
    const double lat =
        latency.latency_ms(spec, e3_sparsity[i], ExecMode::kPattern,
                           table.level(modes[i]).freq_mhz);
    std::string model = "M";
    model += std::to_string(i + 1);
    t.add_row({i == 0 ? "E3" : "", model,
               mode_names[i], fmt_f(lat, 2), lat <= kT ? "Y" : "N",
               i == 0 ? fmt_millions(e3_runs) : "",
               i == 0 ? fmt_x(e3_runs / e1_runs) : ""});
  }
  std::cout << t.str();

  // Cross-check with the event-driven discharge simulator.
  const Governor governor = Governor::equal_tranches({5, 3, 2});
  DischargeConfig dcfg;
  dcfg.battery_capacity_mj = 2e4;  // scaled down: same ratios, faster sim
  dcfg.timing_constraint_ms = kT;
  dcfg.software_reconfig = false;
  const DischargeStats hw = simulate_discharge(
      dcfg, table, governor, power, latency, spec,
      {m1_sparsity, m1_sparsity, m1_sparsity}, ExecMode::kBlock);
  dcfg.software_reconfig = true;
  const DischargeStats hwsw = simulate_discharge(
      dcfg, table, governor, power, latency, spec, e3_sparsity,
      ExecMode::kPattern);

  std::cout << "\nDischarge-simulator cross-check (scaled battery):\n"
            << "  HW-only : " << hw.total_runs << " runs, "
            << hw.deadline_misses << " deadline misses\n"
            << "  HW+SW   : " << hwsw.total_runs << " runs, "
            << hwsw.deadline_misses << " deadline misses, "
            << hwsw.switches << " pattern-set switches\n";

  std::cout << "\nPaper Table II: E2 = +17.30% (misses T at N/E modes); "
               "E3 = 1.78x with all modes satisfying T = 115 ms.\n"
            << "Shape check: E2 > E1 with misses; E3 > E2 with zero misses.\n";
  return 0;
}
