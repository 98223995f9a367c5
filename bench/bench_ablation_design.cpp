// Ablation of RT3's design choices (not a paper exhibit; backs the design
// discussion in Sections II-B and III-C):
//
//   1. pattern size psize — "a small pattern will lead to computation
//      overhead, while a large pattern suffers from the low accuracy";
//      the paper picks 100x100.  We sweep psize and report the trade-off:
//      retained weight energy (accuracy proxy) vs per-switch payload and
//      tile count (overhead proxy), plus the raw pattern-space size that
//      makes unshrunken search infeasible.
//   2. theta (search-space widening) — grid size and sparsity coverage.
//   3. m (patterns per set) — retained energy of per-tile best-of-m
//      assignment; why a SET of patterns beats a single pattern.
#include <cmath>
#include <iostream>

#include "bench_util.hpp"
#include "common/table.hpp"
#include "pruning/model_pruner.hpp"
#include "search/space.hpp"

namespace {

using namespace rt3;

double retained_energy_fraction(const std::vector<Linear*>& layers,
                                const PatternSet& set) {
  double kept = 0.0;
  double total = 0.0;
  for (Linear* layer : layers) {
    const Tensor& w = layer->weight().value();
    const Tensor masked = mul(w, pattern_mask_for_weight(w, set));
    kept += static_cast<double>(masked.l2_norm()) * masked.l2_norm();
    total += static_cast<double>(w.l2_norm()) * w.l2_norm();
  }
  return kept / total;
}

// log10 of C(n, k) via lgamma.
double log10_binomial(double n, double k) {
  return (std::lgamma(n + 1) - std::lgamma(k + 1) - std::lgamma(n - k + 1)) /
         std::log(10.0);
}

}  // namespace

int main() {
  using namespace rt3;
  bench::print_header("Design ablations - psize / theta / m",
                      "paper Sections II-B, III-C design discussion");

  bench::Workload w = bench::make_lm_workload(91);
  ModelPruner pruner(w.task->prunable());
  BpConfig bp;
  bp.num_blocks = 4;
  bp.prune_fraction = 0.35;
  pruner.apply_bp(bp);
  const ModelSpec spec = w.task->paper_spec();
  const SwitchCostModel cost;

  // --- 1. pattern size --------------------------------------------------
  std::cout << "(1) Pattern size trade-off at 50% pattern sparsity:\n";
  TablePrinter t1({"psize", "retained energy", "paper-scale tiles",
                   "switch (ms)", "log10 |patterns|"});
  for (std::int64_t psize : {4, 8, 16}) {
    Rng rng(92);
    const PatternSet set =
        pattern_set_from_layers(pruner.layers(), psize, 0.5, 4, rng);
    const double energy = retained_energy_fraction(pruner.layers(), set);
    // Overhead at paper scale: tile count and switch payload if the paper's
    // matrices were tiled at this psize.
    const std::int64_t tiles = spec.num_tiles(psize * 12);  // scaled psize
    const double switch_ms =
        cost.pattern_set_switch_ms(set.storage_bytes() + tiles * 2, tiles);
    const double space = log10_binomial(
        static_cast<double>(psize * psize),
        static_cast<double>(kept_for_sparsity(psize, 0.5)));
    t1.add_row({std::to_string(psize), fmt_pct(energy),
                std::to_string(tiles), fmt_f(switch_ms, 2),
                fmt_f(space, 1)});
  }
  std::cout << t1.str();
  std::cout << "Small psize -> more tiles (switch/indexing overhead); large "
               "psize -> per-tile choice is coarser, so retained energy "
               "falls, and the raw pattern space explodes (the paper quotes "
               "C(100,50) ~ 1e286) — hence the importance-guided shrinking.\n";

  // --- 2. theta ----------------------------------------------------------
  std::cout << "\n(2) Search-space widening factor theta (T = 104 ms):\n";
  const LatencyModel latency = w.task->paper_latency();
  const VfTable table = VfTable::odroid_xu3_a7();
  std::vector<VfLevel> levels;
  for (std::int64_t i : {5, 3, 2}) {
    levels.push_back(table.level(i));
  }
  TablePrinter t2({"theta", "grid size", "min sparsity", "max sparsity"});
  for (std::int64_t theta : {1, 2, 3, 4}) {
    SearchSpaceConfig cfg;
    cfg.timing_constraint_ms = 104.0;
    cfg.theta = theta;
    cfg.psize = 8;
    cfg.patterns_per_set = 2;
    cfg.num_variants = 1;
    const auto space = PatternSearchSpace::build(
        cfg, levels, spec, latency, pruner.layers(), 0.35);
    t2.add_row({std::to_string(theta), std::to_string(space.grid_size()),
                fmt_pct(space.sparsity_grid().front()),
                fmt_pct(space.sparsity_grid().back())});
  }
  std::cout << t2.str();
  std::cout << "Larger theta widens the grid toward sparser candidates "
               "(tighter virtual constraints), giving the RL controller "
               "room to trade accuracy for runs.\n";

  // --- 3. patterns per set (m) -------------------------------------------
  std::cout << "\n(3) Patterns per set (m), 50% sparsity, psize 8:\n";
  TablePrinter t3({"m", "retained energy", "switch payload (B)"});
  for (std::int64_t m : {1, 2, 4, 8}) {
    Rng rng(93);
    const PatternSet set =
        pattern_set_from_layers(pruner.layers(), 8, 0.5, m, rng);
    t3.add_row({std::to_string(m),
                fmt_pct(retained_energy_fraction(pruner.layers(), set)),
                std::to_string(set.storage_bytes())});
  }
  std::cout << t3.str();
  std::cout << "More patterns per set let each tile pick a better-fitting "
               "mask (higher retained energy) at a linear cost in switch "
               "payload — the paper's m is the knob balancing the two.\n";
  return 0;
}
