// Reproduces paper Fig. 4: visualization of the patterns identified for
// the three V/F levels (sparsities ~75% / 50% / 37% in the paper), plus
// the cross-sparsity structural-similarity observation (the paper's blue
// box / circled regions: patterns at different sparsities share important
// positions because all are derived from the same backbone importance).
#include <iostream>

#include "bench_util.hpp"
#include "common/table.hpp"
#include "pruning/model_pruner.hpp"
#include "search/space.hpp"

int main() {
  using namespace rt3;
  bench::print_header("Fig. 4 - identified pattern visualization",
                      "paper Fig. 4: patterns at 3 V/F levels share structure");

  // Build a trained backbone, as the search would.
  bench::Workload w = bench::make_lm_workload(61);
  ModelPruner pruner(w.task->prunable());
  BpConfig bp;
  bp.num_blocks = 4;
  bp.prune_fraction = 0.35;
  pruner.apply_bp(bp);

  const std::vector<double> sparsities = {0.75, 0.50, 0.37};
  const std::int64_t psize = 8;
  std::vector<PatternSet> sets;
  for (double s : sparsities) {
    // Same seed per sparsity: each set's i-th pattern samples the same
    // backbone tiles, so different sparsity levels carve nested top-k
    // positions out of one importance landscape (the paper's shared
    // "column characteristic" across Fig. 4(a)-(c)).
    Rng rng(62);
    sets.push_back(
        pattern_set_from_layers(pruner.layers(), psize, s, 4, rng));
  }

  for (std::size_t i = 0; i < sets.size(); ++i) {
    std::cout << "(" << static_cast<char>('a' + i) << ") Sparsity = "
              << fmt_pct(sparsities[i], 0) << "  ('#' = kept, '.' = pruned)\n";
    std::cout << sets[i].patterns.front().to_ascii() << "\n";
  }

  // Cross-sparsity structure: kept positions of a SPARSER pattern should
  // be largely contained in the kept positions of a DENSER pattern from
  // the same backbone (paper's "exactly the same shape" observation).
  std::cout << "Containment of kept positions (sparser in denser):\n";
  TablePrinter t({"pair", "containment", "random expectation"});
  for (std::size_t a = 0; a < sets.size(); ++a) {
    for (std::size_t b = 0; b < sets.size(); ++b) {
      if (sparsities[a] <= sparsities[b]) {
        continue;  // a must be the sparser one
      }
      const Pattern& pa = sets[a].patterns.front();
      const Pattern& pb = sets[b].patterns.front();
      std::int64_t contained = 0;
      for (std::int64_t r = 0; r < psize; ++r) {
        for (std::int64_t c = 0; c < psize; ++c) {
          if (pa.kept(r, c) && pb.kept(r, c)) {
            ++contained;
          }
        }
      }
      const double frac =
          static_cast<double>(contained) / static_cast<double>(pa.count_kept());
      // If patterns were independent, containment would be ~density(b).
      t.add_row({fmt_pct(sparsities[a], 0) + " in " + fmt_pct(sparsities[b], 0),
                 fmt_pct(frac), fmt_pct(1.0 - sparsities[b])});
    }
  }
  std::cout << t.str();

  std::cout << "\nShape check: containment far above the random expectation "
               "shows the search-space generation (component #3) reuses the "
               "backbone's important positions across V/F levels, as the "
               "paper observes in Fig. 4.\n";

  // Intra-set diversity: members of one set are distinct patterns.
  double avg_overlap = 0.0;
  int pairs = 0;
  for (std::size_t i = 0; i < sets[1].patterns.size(); ++i) {
    for (std::size_t j = i + 1; j < sets[1].patterns.size(); ++j) {
      avg_overlap += sets[1].patterns[i].overlap(sets[1].patterns[j]);
      ++pairs;
    }
  }
  std::cout << "Average intra-set overlap at 50% sparsity: "
            << fmt_pct(avg_overlap / pairs)
            << " (< 100% -> the set offers per-tile choice).\n";
  return 0;
}
