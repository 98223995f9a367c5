// Cross-module property tests: BP pruning-dimension variants, the
// unstructured baseline, latency-model orderings, search-space response to
// the timing constraint, package corruption handling, discharge
// accounting, and the one per-tile pattern choice behind the pruning
// masks, the pattern storage format and the kernel plans.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <vector>

#include "common/check.hpp"
#include "dvfs/dvfs.hpp"
#include "exec/plan.hpp"
#include "perf/latency_model.hpp"
#include "pruning/block_prune.hpp"
#include "pruning/pattern_prune.hpp"
#include "runtime/engine.hpp"
#include "runtime/package.hpp"
#include "rl/reward.hpp"
#include "search/space.hpp"
#include "sparse/block_format.hpp"
#include "sparse/formats.hpp"

namespace rt3 {
namespace {

// ---------------------------------------------------------------------------
// BP pruning-dimension variants (paper: "can be generalized to apply row
// pruning or both row and column pruning").
// ---------------------------------------------------------------------------

TEST(BpDims, RowModeIsTransposeOfColumnMode) {
  Rng rng(1);
  const Tensor w = Tensor::randn({8, 12}, rng);
  BpConfig col_cfg;
  col_cfg.num_blocks = 4;
  col_cfg.prune_fraction = 0.5;
  col_cfg.dim = BpConfig::Dim::kColumns;
  BpConfig row_cfg = col_cfg;
  row_cfg.dim = BpConfig::Dim::kRows;
  // Row pruning on W == column pruning on W^T, transposed back.
  const Tensor row_mask = bp_mask(w, row_cfg);
  const Tensor expected = transpose2d(bp_mask(transpose2d(w), col_cfg));
  EXPECT_TRUE(row_mask.allclose(expected));
}

TEST(BpDims, RowModePrunesWholeRowSegments) {
  Rng rng(2);
  const Tensor w = Tensor::randn({8, 12}, rng);
  BpConfig cfg;
  cfg.num_blocks = 4;  // 12 cols -> 4 column-wise blocks of width 3
  cfg.prune_fraction = 0.5;
  cfg.dim = BpConfig::Dim::kRows;
  const Tensor mask = bp_mask(w, cfg);
  // Within each column block, a pruned row segment must be all-zero.
  const std::int64_t block_cols = 3;
  for (std::int64_t b = 0; b < 4; ++b) {
    for (std::int64_t r = 0; r < 8; ++r) {
      const float first = mask[r * 12 + b * block_cols];
      for (std::int64_t c = 1; c < block_cols; ++c) {
        EXPECT_FLOAT_EQ(mask[r * 12 + b * block_cols + c], first);
      }
    }
  }
  EXPECT_NEAR(mask.sparsity(), 0.5, 1e-9);
}

TEST(BpDims, BothModeIsIntersection) {
  Rng rng(3);
  const Tensor w = Tensor::randn({8, 8}, rng);
  BpConfig cfg;
  cfg.num_blocks = 2;
  cfg.prune_fraction = 0.25;
  BpConfig col_cfg = cfg;
  col_cfg.dim = BpConfig::Dim::kColumns;
  BpConfig row_cfg = cfg;
  row_cfg.dim = BpConfig::Dim::kRows;
  BpConfig both_cfg = cfg;
  both_cfg.dim = BpConfig::Dim::kBoth;
  const Tensor both = bp_mask(w, both_cfg);
  const Tensor expected = mul(bp_mask(w, col_cfg), bp_mask(w, row_cfg));
  EXPECT_TRUE(both.allclose(expected));
  // Both prunes at least as much as either alone.
  EXPECT_GE(both.sparsity(), bp_mask(w, col_cfg).sparsity() - 1e-9);
}

TEST(BpDims, RandomBaselineMatchesSparsityPerDim) {
  Rng rng(4);
  const Tensor w = Tensor::randn({8, 12}, rng);
  for (auto dim : {BpConfig::Dim::kColumns, BpConfig::Dim::kRows}) {
    BpConfig cfg;
    cfg.num_blocks = 4;
    cfg.prune_fraction = 0.5;
    cfg.dim = dim;
    Rng r2(5);
    EXPECT_NEAR(bp_mask(w, cfg).sparsity(), rbp_mask(w, cfg, r2).sparsity(),
                1e-9);
  }
}

// ---------------------------------------------------------------------------
// Unstructured (irregular) pruning baseline — Challenge 1.
// ---------------------------------------------------------------------------

TEST(Unstructured, ExactSparsityAndMagnitudeOrder) {
  Rng rng(6);
  const Tensor w = Tensor::randn({10, 10}, rng);
  const Tensor mask = unstructured_mask(w, 0.7);
  EXPECT_NEAR(mask.sparsity(), 0.7, 1e-9);
  // Every kept weight must be at least as large (in magnitude) as every
  // pruned weight.
  float min_kept = 1e9F;
  float max_pruned = 0.0F;
  for (std::int64_t i = 0; i < w.numel(); ++i) {
    if (mask[i] == 1.0F) {
      min_kept = std::min(min_kept, std::abs(w[i]));
    } else {
      max_pruned = std::max(max_pruned, std::abs(w[i]));
    }
  }
  EXPECT_GE(min_kept, max_pruned);
}

TEST(Unstructured, RetainsMoreEnergyThanBlockAtEqualSparsity) {
  // The accuracy side of Challenge 1: irregular pruning keeps the largest
  // weights wherever they are, so it retains at least as much energy as
  // the structured cut...
  Rng rng(7);
  const Tensor w = Tensor::randn({16, 16}, rng);
  BpConfig cfg;
  cfg.num_blocks = 4;
  cfg.prune_fraction = 0.5;
  const Tensor block = mul(w, bp_mask(w, cfg));
  const Tensor irregular = mul(w, unstructured_mask(w, 0.5));
  EXPECT_GE(irregular.l2_norm(), block.l2_norm());
}

TEST(Unstructured, PaysIndexOverheadInStorageAndLatency) {
  // ...and the efficiency side: per-element COO indices and the
  // kIrregular execution overhead are what it costs.
  Rng rng(8);
  const Tensor w = Tensor::randn({40, 40}, rng);
  const Tensor irregular = mul(w, unstructured_mask(w, 0.5));
  BpConfig cfg;
  cfg.num_blocks = 4;
  cfg.prune_fraction = 0.5;
  const Tensor block = mul(w, bp_mask(w, cfg));
  const auto coo_bytes = CooMatrix::from_dense(irregular).storage_bytes();
  const auto block_bytes =
      BlockPrunedMatrix::from_dense(block, 4).storage_bytes();
  EXPECT_GT(coo_bytes, block_bytes);

  const ModelSpec spec = ModelSpec::paper_transformer();
  const LatencyModel latency;
  EXPECT_GT(latency.latency_ms(spec, 0.5, ExecMode::kIrregular, 1000.0),
            latency.latency_ms(spec, 0.5, ExecMode::kPattern, 1000.0));
  EXPECT_GT(latency.latency_ms(spec, 0.5, ExecMode::kPattern, 1000.0),
            latency.latency_ms(spec, 0.5, ExecMode::kBlock, 1000.0));
}

// ---------------------------------------------------------------------------
// Reward property sweeps
// ---------------------------------------------------------------------------

class RewardLevels : public ::testing::TestWithParam<int> {};

TEST_P(RewardLevels, FeasibleBeatsInfeasibleAtAnyWidth) {
  const int n = GetParam();
  RewardInputs feasible;
  RewardInputs infeasible;
  for (int i = 0; i < n; ++i) {
    feasible.latencies_ms.push_back(50.0);
    feasible.accuracies.push_back(0.9 - 0.01 * i);
    feasible.runs.push_back(1e5);
    infeasible.latencies_ms.push_back(i == 0 ? 500.0 : 50.0);
    infeasible.runs.push_back(1e5);
  }
  feasible.timing_constraint_ms = 100.0;
  infeasible.timing_constraint_ms = 100.0;
  feasible.backbone_accuracy = 0.95;
  infeasible.backbone_accuracy = 0.95;
  feasible.min_accuracy = 0.5;
  infeasible.min_accuracy = 0.5;
  feasible.runs_reference = 1e6;
  infeasible.runs_reference = 1e6;
  EXPECT_GT(compute_reward(feasible).value,
            compute_reward(infeasible).value);
}

INSTANTIATE_TEST_SUITE_P(Widths, RewardLevels, ::testing::Values(1, 2, 3, 5));

// ---------------------------------------------------------------------------
// Search space responds to the timing constraint
// ---------------------------------------------------------------------------

class SpaceConstraint : public ::testing::TestWithParam<double> {};

TEST_P(SpaceConstraint, TighterConstraintNeedsSparserGrid) {
  Rng rng(9);
  std::vector<std::unique_ptr<Linear>> layers;
  std::vector<Linear*> raw;
  for (int i = 0; i < 2; ++i) {
    layers.push_back(std::make_unique<Linear>(16, 16, rng));
    raw.push_back(layers.back().get());
  }
  const ModelSpec spec = ModelSpec::paper_transformer();
  LatencyModel latency;
  latency.calibrate(spec, 0.6426, ExecMode::kBlock, 1400.0, 114.59);
  const VfTable table = VfTable::odroid_xu3_a7();
  std::vector<VfLevel> levels;
  for (std::int64_t i : {5, 3, 2}) {
    levels.push_back(table.level(i));
  }
  SearchSpaceConfig cfg;
  cfg.psize = 4;
  cfg.patterns_per_set = 2;
  cfg.num_variants = 1;
  cfg.theta = 2;

  cfg.timing_constraint_ms = GetParam();
  const auto tight =
      PatternSearchSpace::build(cfg, levels, spec, latency, raw, 0.4);
  cfg.timing_constraint_ms = GetParam() * 2.0;
  const auto loose =
      PatternSearchSpace::build(cfg, levels, spec, latency, raw, 0.4);
  // Max required sparsity under the tighter constraint >= under the looser.
  EXPECT_GE(tight.sparsity_grid().back() + 1e-9,
            loose.sparsity_grid().back());
}

INSTANTIATE_TEST_SUITE_P(Constraints, SpaceConstraint,
                         ::testing::Values(80.0, 104.0, 150.0, 250.0));

// ---------------------------------------------------------------------------
// Package corruption fuzz
// ---------------------------------------------------------------------------

TEST(PackageFuzz, TruncatedFilesThrowNotCrash) {
  DeploymentPackage pkg;
  Rng rng(10);
  pkg.param_names = {"a"};
  pkg.params = {Tensor::randn({6, 6}, rng)};
  pkg.prunable_names = {"a"};
  pkg.backbone_masks = {Tensor::ones({6, 6})};
  PatternSet set;
  set.patterns.push_back(Pattern::dense(4));
  pkg.pattern_sets = {set};
  pkg.levels = {LevelMeta{"l6", 1400.0, 0.5, 0.6, 90.0, 0.9}};
  const std::string path = "/tmp/rt3_fuzz_pkg.bin";
  pkg.save(path);

  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  for (double frac : {0.1, 0.3, 0.5, 0.7, 0.9, 0.99}) {
    const std::string cut = "/tmp/rt3_fuzz_cut.bin";
    std::ofstream out(cut, std::ios::binary);
    out.write(bytes.data(),
              static_cast<std::streamsize>(
                  static_cast<double>(bytes.size()) * frac));
    out.close();
    EXPECT_THROW(DeploymentPackage::load(cut), CheckError)
        << "truncated at " << frac;
    std::remove(cut.c_str());
  }
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Discharge accounting details
// ---------------------------------------------------------------------------

TEST(DischargeDetail, SwitchEnergyIsAccounted) {
  const VfTable table = VfTable::odroid_xu3_a7();
  const Governor governor = Governor::equal_tranches({5, 3, 2});
  const PowerModel power;
  const ModelSpec spec = ModelSpec::paper_transformer();
  LatencyModel latency;
  latency.calibrate(spec, 0.6426, ExecMode::kBlock, 1400.0, 114.59);
  DischargeConfig cfg;
  cfg.battery_capacity_mj = 1e4;
  cfg.software_reconfig = true;
  cfg.switch_energy_mj = 0.0;
  const auto free_switches = simulate_discharge(
      cfg, table, governor, power, latency, spec, {0.65, 0.75, 0.85},
      ExecMode::kPattern);
  cfg.switch_energy_mj = 500.0;  // absurdly expensive switches
  const auto costly_switches = simulate_discharge(
      cfg, table, governor, power, latency, spec, {0.65, 0.75, 0.85},
      ExecMode::kPattern);
  EXPECT_GT(free_switches.total_runs, costly_switches.total_runs);
}

TEST(DischargeDetail, FullLadderGovernorVisitsLevelsInOrder) {
  const Governor gov =
      Governor::equal_tranches({5, 4, 3, 2, 1, 0});  // whole Table I
  std::int64_t prev = 6;
  for (double f : {0.99, 0.8, 0.65, 0.45, 0.3, 0.1}) {
    const std::int64_t level = gov.level_for(f);
    EXPECT_LE(level, prev);
    prev = level;
  }
  EXPECT_EQ(gov.level_for(0.01), 0);
}

// ---------------------------------------------------------------------------
// Pattern edge cases
// ---------------------------------------------------------------------------

TEST(PatternEdge, TiesBrokenDeterministically) {
  const Tensor flat = Tensor::full({3, 3}, 1.0F);
  const Pattern a = Pattern::from_importance(flat, 4);
  const Pattern b = Pattern::from_importance(flat, 4);
  EXPECT_EQ(a.bits(), b.bits());
  EXPECT_EQ(a.count_kept(), 4);
}

TEST(PatternEdge, SingleElementPattern) {
  const Pattern p = Pattern::from_importance(Tensor::full({1, 1}, 2.0F), 1);
  EXPECT_EQ(p.psize(), 1);
  EXPECT_TRUE(p.kept(0, 0));
  EXPECT_DOUBLE_EQ(p.sparsity(), 0.0);
}

TEST(PatternEdge, MaskForWeightWithDensePattern) {
  Rng rng(11);
  const Tensor w = Tensor::randn({8, 8}, rng);
  PatternSet set;
  set.patterns.push_back(Pattern::dense(4));
  const Tensor mask = pattern_mask_for_weight(w, set);
  EXPECT_DOUBLE_EQ(mask.sparsity(), 0.0);
}

// ---------------------------------------------------------------------------
// One per-tile pattern choice: pattern_mask_for_weight, PatternMaskedMatrix
// and PatternPlan all run choose_tile_patterns, the paper's retained-L2
// rule, so the masks, the storage format and the kernel plans agree.
// ---------------------------------------------------------------------------

/// The rule spelled out: per tile, copied into a zero-padded psize x psize
/// block, the first pattern with the largest Pattern::retained_l2.
std::vector<std::int32_t> reference_choice(const Tensor& w,
                                           const PatternSet& set) {
  const std::int64_t p = set.psize();
  const std::int64_t rows = w.size(0);
  const std::int64_t cols = w.size(1);
  std::vector<std::int32_t> choice;
  for (std::int64_t tr = 0; tr * p < rows; ++tr) {
    for (std::int64_t tc = 0; tc * p < cols; ++tc) {
      Tensor tile({p, p});
      for (std::int64_t r = 0; r < p && tr * p + r < rows; ++r) {
        for (std::int64_t c = 0; c < p && tc * p + c < cols; ++c) {
          tile[r * p + c] = w[(tr * p + r) * cols + tc * p + c];
        }
      }
      std::int32_t best = 0;
      double best_l2 = -1.0;
      for (std::size_t i = 0; i < set.patterns.size(); ++i) {
        const double l2 = set.patterns[i].retained_l2(tile);
        if (l2 > best_l2) {
          best_l2 = l2;
          best = static_cast<std::int32_t>(i);
        }
      }
      choice.push_back(best);
    }
  }
  return choice;
}

/// `w` where the chosen (edge-clipped) pattern keeps a cell, +0 elsewhere:
/// the pruned matrix with the sign of pruned cells cleared (mul(w, mask)
/// would leave -0 at a pruned negative weight).
Tensor keep_chosen(const Tensor& w, const PatternSet& set,
                   const std::vector<std::int32_t>& choice) {
  const std::int64_t p = set.psize();
  const std::int64_t rows = w.size(0);
  const std::int64_t cols = w.size(1);
  const std::int64_t tiles_c = (cols + p - 1) / p;
  Tensor out({rows, cols});
  for (std::int64_t i = 0; i < rows; ++i) {
    for (std::int64_t j = 0; j < cols; ++j) {
      const auto t = static_cast<std::size_t>((i / p) * tiles_c + j / p);
      const Pattern& pat =
          set.patterns[static_cast<std::size_t>(choice[t])];
      if (pat.kept(i % p, j % p)) {
        out[i * cols + j] = w[i * cols + j];
      }
    }
  }
  return out;
}

void expect_bitwise_equal(const Tensor& a, const Tensor& b,
                          const std::string& what) {
  ASSERT_EQ(a.shape(), b.shape()) << what;
  for (std::int64_t i = 0; i < a.numel(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint32_t>(a[i]),
              std::bit_cast<std::uint32_t>(b[i]))
        << what << " at " << i << ": " << a[i] << " vs " << b[i];
  }
}

void expect_one_choice(const Tensor& w, const PatternSet& set) {
  const std::vector<std::int32_t> choice = choose_tile_patterns(w, set);
  ASSERT_EQ(choice, reference_choice(w, set));
  const Tensor kept = keep_chosen(w, set, choice);
  const Tensor plan_dense = PatternPlan::build(w, set).to_dense();
  expect_bitwise_equal(plan_dense, kept, "plan vs chosen cells");
  const std::int64_t p = set.psize();
  if (w.size(0) % p != 0 || w.size(1) % p != 0) {
    return;  // the mask and the storage format need whole tiles
  }
  const Tensor mask = pattern_mask_for_weight(w, set);
  expect_bitwise_equal(plan_dense,
                       PatternMaskedMatrix::from_dense(w, set).to_dense(),
                       "plan vs PatternMaskedMatrix");
  const Tensor product = mul(w, mask);
  for (std::int64_t i = 0; i < w.numel(); ++i) {
    // Bitwise where kept; a pruned cell is +0 in the plan, +-0 in mul.
    if (mask[i] != 0.0F) {
      ASSERT_EQ(std::bit_cast<std::uint32_t>(plan_dense[i]),
                std::bit_cast<std::uint32_t>(product[i]))
          << "plan vs mul(w, mask) at " << i;
    } else {
      ASSERT_EQ(plan_dense[i], 0.0F);
      ASSERT_EQ(product[i], 0.0F);
    }
  }
}

TEST(PatternChoice, MasksFormatAndPlansAgreeOnEveryTile) {
  Rng rng(2026);
  const std::vector<std::pair<std::int64_t, std::int64_t>> shapes = {
      {8, 16}, {16, 8}, {24, 24}, {7, 10}, {13, 5}, {9, 17}, {3, 3}};
  for (const std::int64_t p : {4, 8}) {
    for (std::int64_t m = 1; m <= 4; ++m) {
      for (const auto& [rows, cols] : shapes) {
        PatternSet set = random_pattern_set(p, 0.5, m, rng);
        if (m >= 3) {
          set.patterns[2] = set.patterns[1];  // an exact tie every tile
        }
        Tensor w = Tensor::randn({rows, cols}, rng);
        for (std::int64_t c = 0; c < std::min(p, cols); ++c) {
          for (std::int64_t r = 0; r < std::min(p, rows); ++r) {
            w[r * cols + c] = 0.0F;  // tile (0, 0): every pattern ties at 0
          }
        }
        SCOPED_TRACE("psize " + std::to_string(p) + ", " +
                     std::to_string(m) + " patterns, " +
                     std::to_string(rows) + "x" + std::to_string(cols));
        expect_one_choice(w, set);
        const std::vector<std::int32_t> choice = choose_tile_patterns(w, set);
        EXPECT_EQ(choice[0], 0);
        for (const std::int32_t id : choice) {
          EXPECT_NE(id, 2);  // the duplicate never beats its first copy
        }
      }
    }
  }
}

TEST(PatternChoice, EdgeRowKeepingEveryColumnKeepsNegativeZero) {
  // Row 0 of pattern a keeps every column; row 0 of b keeps one, but b's
  // row 1 keeps four, so every row gets 4 slots.  On the ragged edge
  // tile (2 in-bounds columns) a's row 0 keeps both and pads by
  // repeating column 1, where the kept weight is -0.0.
  const auto bits = [](const char* rows) {
    std::vector<std::uint8_t> out;
    for (const char* c = rows; *c != '\0'; ++c) {
      out.push_back(*c == '#' ? 1 : 0);
    }
    return out;
  };
  PatternSet set;
  set.patterns.emplace_back(4, bits("####....#....#.."));
  set.patterns.emplace_back(4, bits("#...####..#....#"));
  Rng rng(7);
  Tensor w = Tensor::randn({4, 6}, rng);
  w[4] = 5.0F;   // row 0 of the edge tile, kept by both patterns
  w[5] = -0.0F;  // the cell a's padding repeats
  w[10] = 0.0F;  // b's row 1 scores nothing, so a wins the edge tile
  w[11] = 0.0F;
  expect_one_choice(w, set);
  const std::vector<std::int32_t> choice = choose_tile_patterns(w, set);
  ASSERT_EQ(choice.size(), 2U);
  EXPECT_EQ(choice[1], 0);
  const Tensor dense = PatternPlan::build(w, set).to_dense();
  EXPECT_EQ(std::bit_cast<std::uint32_t>(dense[5]),
            std::bit_cast<std::uint32_t>(-0.0F));
}

}  // namespace
}  // namespace rt3
