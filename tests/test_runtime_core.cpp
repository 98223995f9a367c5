// Tests for the runtime layer (package serialization, reconfiguration
// engine, discharge simulation) and core utilities (Pareto front), plus an
// end-to-end mini pipeline integration test.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <memory>

#include "common/check.hpp"
#include "core/pareto.hpp"
#include "core/pipeline.hpp"
#include "heap_counter.hpp"
#include "runtime/engine.hpp"
#include "runtime/package.hpp"

namespace rt3 {
namespace {

TEST(Pareto, DominanceDefinition) {
  EXPECT_TRUE(dominates({0.9, 100.0, 0}, {0.8, 90.0, 1}));
  EXPECT_TRUE(dominates({0.9, 100.0, 0}, {0.9, 90.0, 1}));
  EXPECT_FALSE(dominates({0.9, 100.0, 0}, {0.9, 100.0, 1}));  // equal
  EXPECT_FALSE(dominates({0.9, 80.0, 0}, {0.8, 90.0, 1}));    // trade-off
}

TEST(Pareto, FrontMaintenance) {
  ParetoFront front;
  EXPECT_TRUE(front.insert({0.9, 100.0, 0}));
  EXPECT_TRUE(front.insert({0.95, 50.0, 1}));   // trade-off: joins
  EXPECT_FALSE(front.insert({0.8, 90.0, 2}));   // dominated by first
  EXPECT_TRUE(front.insert({0.99, 200.0, 3}));  // dominates everything
  const auto f = front.front();
  ASSERT_EQ(f.size(), 1U);
  EXPECT_EQ(f[0].tag, 3);
  EXPECT_EQ(front.all().size(), 4U);
}

TEST(Pareto, BestAccuracySelection) {
  ParetoFront front;
  front.insert({0.9, 100.0, 0});
  front.insert({0.95, 50.0, 1});
  EXPECT_EQ(front.best_accuracy().tag, 1);
  ParetoFront empty;
  EXPECT_THROW(empty.best_accuracy(), CheckError);
}

TEST(Pareto, FrontSortedByAccuracy) {
  ParetoFront front;
  front.insert({0.95, 50.0, 0});
  front.insert({0.85, 80.0, 1});
  front.insert({0.75, 120.0, 2});
  const auto f = front.front();
  ASSERT_EQ(f.size(), 3U);
  EXPECT_LT(f[0].accuracy, f[1].accuracy);
  EXPECT_LT(f[1].accuracy, f[2].accuracy);
}

TEST(Package, SaveLoadRoundTrip) {
  DeploymentPackage pkg;
  Rng rng(1);
  pkg.param_names = {"a", "b"};
  pkg.params = {Tensor::randn({3, 4}, rng), Tensor::randn({5}, rng)};
  pkg.prunable_names = {"p0"};
  pkg.backbone_masks = {Tensor::ones({3, 4})};
  PatternSet set;
  set.patterns.push_back(Pattern::dense(4));
  set.patterns.push_back(
      Pattern::from_importance(Tensor::rand_uniform({4, 4}, rng, 0, 1), 8));
  pkg.pattern_sets = {set};
  LevelMeta meta;
  meta.level_name = "l6";
  meta.freq_mhz = 1400.0;
  meta.pattern_sparsity = 0.5;
  meta.overall_sparsity = 0.7;
  meta.latency_ms = 93.5;
  meta.accuracy = 0.954;
  pkg.levels = {meta};

  const std::string path = "/tmp/rt3_test_pkg.bin";
  pkg.save(path);
  const DeploymentPackage loaded = DeploymentPackage::load(path);
  std::remove(path.c_str());

  ASSERT_EQ(loaded.param_names, pkg.param_names);
  EXPECT_TRUE(loaded.params[0].allclose(pkg.params[0]));
  EXPECT_TRUE(loaded.params[1].allclose(pkg.params[1]));
  EXPECT_TRUE(loaded.backbone_masks[0].allclose(pkg.backbone_masks[0]));
  ASSERT_EQ(loaded.pattern_sets.size(), 1U);
  EXPECT_EQ(loaded.pattern_sets[0].patterns[1].bits(),
            pkg.pattern_sets[0].patterns[1].bits());
  EXPECT_EQ(loaded.levels[0].level_name, "l6");
  EXPECT_DOUBLE_EQ(loaded.levels[0].accuracy, 0.954);
}

TEST(Package, LoadRejectsGarbage) {
  const std::string path = "/tmp/rt3_test_garbage.bin";
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    const char junk[] = "definitely not a package";
    std::fwrite(junk, 1, sizeof(junk), f);
    std::fclose(f);
  }
  EXPECT_THROW(DeploymentPackage::load(path), CheckError);
  std::remove(path.c_str());
  EXPECT_THROW(DeploymentPackage::load("/tmp/rt3_does_not_exist.bin"),
               CheckError);
}

TEST(Package, ByteAccounting) {
  DeploymentPackage pkg;
  pkg.param_names = {"w"};
  pkg.params = {Tensor::zeros({10, 10})};
  pkg.prunable_names = {"w"};
  pkg.backbone_masks = {Tensor::ones({10, 10})};
  PatternSet set;
  set.patterns.push_back(Pattern::dense(10));  // 100 bits -> 13 bytes
  pkg.pattern_sets = {set};
  pkg.levels = {LevelMeta{}};
  EXPECT_EQ(pkg.resident_bytes(), 400 + 13);  // weights + packed mask
  EXPECT_EQ(pkg.switch_bytes(0), 13);
  EXPECT_THROW(pkg.switch_bytes(1), CheckError);
}

class EngineFixture : public ::testing::Test {
 protected:
  EngineFixture() : rng_(2) {
    pruner_ = make_pruner(rng_, layers_, raw_);
    sets_.push_back(random_pattern_set(4, 0.25, 2, rng_));
    sets_.push_back(random_pattern_set(4, 0.5, 2, rng_));
    sets_.push_back(random_pattern_set(4, 0.75, 2, rng_));
  }
  /// Two 16 x 16 layers drawn from `rng` under a block-pruned backbone.
  static std::unique_ptr<ModelPruner> make_pruner(
      Rng& rng, std::vector<std::unique_ptr<Linear>>& layers,
      std::vector<Linear*>& raw) {
    for (int i = 0; i < 2; ++i) {
      layers.push_back(std::make_unique<Linear>(16, 16, rng));
      raw.push_back(layers.back().get());
    }
    auto pruner = std::make_unique<ModelPruner>(raw);
    BpConfig bp;
    bp.num_blocks = 4;
    bp.prune_fraction = 0.25;
    pruner->apply_bp(bp);
    return pruner;
  }

  Rng rng_;
  std::vector<std::unique_ptr<Linear>> layers_;
  std::vector<Linear*> raw_;
  std::unique_ptr<ModelPruner> pruner_;
  std::vector<PatternSet> sets_;
};

TEST_F(EngineFixture, SwitchAppliesMasksAndReports) {
  ReconfigEngine engine(*pruner_, sets_, SwitchCostModel(),
                        ModelSpec::paper_transformer(), 100);
  const SwitchReport r0 = engine.switch_to(0);
  EXPECT_EQ(r0.to_level, 0);
  EXPECT_GT(r0.modeled_ms, 0.0);
  EXPECT_LT(r0.modeled_ms, 100.0);  // milliseconds, not seconds
  EXPECT_EQ(engine.current_level(), 0);

  const double s0 = pruner_->overall_sparsity();
  engine.switch_to(2);
  EXPECT_GT(pruner_->overall_sparsity(), s0);  // sparser set now active
}

TEST_F(EngineFixture, RepeatSwitchIsNoop) {
  ReconfigEngine engine(*pruner_, sets_, SwitchCostModel(),
                        ModelSpec::paper_transformer(), 100);
  engine.switch_to(1);
  const SwitchReport again = engine.switch_to(1);
  EXPECT_EQ(again.modeled_ms, 0.0);
  EXPECT_EQ(again.wall_ms, 0.0);
}

TEST_F(EngineFixture, SparsityAtIsMonotoneAcrossLevels) {
  ReconfigEngine engine(*pruner_, sets_, SwitchCostModel(),
                        ModelSpec::paper_transformer(), 100);
  const std::int64_t active = engine.current_level();
  const double s0 = engine.sparsity_at(0);
  const double s1 = engine.sparsity_at(1);
  const double s2 = engine.sparsity_at(2);
  EXPECT_LT(s0, s1);
  EXPECT_LT(s1, s2);
  EXPECT_EQ(engine.current_level(), active);
}

TEST_F(EngineFixture, SwitchesInstallFreshlyComposedMasks) {
  ReconfigEngine engine(*pruner_, sets_, SwitchCostModel(),
                        ModelSpec::paper_transformer(), 100);
  // A twin model: the same weights and backbone, recomposed from scratch
  // by apply_pattern_set at every step.
  Rng twin_rng(2);
  std::vector<std::unique_ptr<Linear>> twin_layers;
  std::vector<Linear*> twin_raw;
  auto twin = make_pruner(twin_rng, twin_layers, twin_raw);
  for (std::size_t i = 0; i < raw_.size(); ++i) {
    ASSERT_EQ(raw_[i]->weight().value().vec(),
              twin_raw[i]->weight().value().vec());
  }
  for (const std::int64_t level : {0, 2, 1, 0, 2, 2, 1}) {
    engine.switch_to(level);
    const double twin_sparsity =
        twin->apply_pattern_set(sets_[static_cast<std::size_t>(level)]);
    for (std::size_t i = 0; i < raw_.size(); ++i) {
      EXPECT_EQ(raw_[i]->mask().vec(), twin_raw[i]->mask().vec())
          << "level " << level << " layer " << i;
    }
    EXPECT_EQ(pruner_->overall_sparsity(), twin_sparsity);
    EXPECT_EQ(engine.sparsity_at(level), twin_sparsity);
  }
}

TEST_F(EngineFixture, SwitchAllocatesNothing) {
  ReconfigEngine engine(*pruner_, sets_, SwitchCostModel(),
                        ModelSpec::paper_transformer(), 100);
  std::vector<SwitchReport> reports;
  reports.reserve(5);
  const std::int64_t before = g_heap_allocs.load();
  for (const std::int64_t level : {0, 2, 1, 1, 0}) {
    reports.push_back(engine.switch_to(level));
  }
  EXPECT_EQ(g_heap_allocs.load() - before, 0);
  EXPECT_EQ(reports.back().to_level, 0);
  EXPECT_GT(reports.back().swap_bytes, 0);

  // The counter does see allocations: composing a set builds tensors.
  const std::int64_t compose_before = g_heap_allocs.load();
  pruner_->apply_pattern_set(sets_[1]);
  EXPECT_GT(g_heap_allocs.load() - compose_before, 0);
}

TEST(Discharge, SoftwareReconfigBeatsHardwareOnly) {
  // Reproduces the Table II ordering inside the simulator itself.
  const VfTable table = VfTable::odroid_xu3_a7();
  const Governor governor = Governor::equal_tranches({5, 3, 2});
  const PowerModel power;
  const ModelSpec spec = ModelSpec::paper_transformer();
  LatencyModel latency;
  latency.calibrate(spec, 0.6426, ExecMode::kBlock, 1400.0, 114.59);

  DischargeConfig cfg;
  cfg.battery_capacity_mj = 2e4;
  cfg.timing_constraint_ms = 115.0;

  // Sub-model sparsities sized to meet T at each level.
  std::vector<double> adaptive;
  for (std::int64_t li : {5, 3, 2}) {
    adaptive.push_back(std::max(
        0.6426, latency.sparsity_for_latency(spec, ExecMode::kPattern,
                                             table.level(li).freq_mhz,
                                             115.0)));
  }

  cfg.software_reconfig = false;
  const DischargeStats hw_only = simulate_discharge(
      cfg, table, governor, power, latency, spec,
      {0.6426, 0.6426, 0.6426}, ExecMode::kBlock);

  cfg.software_reconfig = true;
  const DischargeStats hw_sw = simulate_discharge(
      cfg, table, governor, power, latency, spec, adaptive,
      ExecMode::kPattern);

  EXPECT_GT(hw_sw.total_runs, hw_only.total_runs);
  EXPECT_GT(hw_only.deadline_misses, 0.0);      // N/E modes miss T
  EXPECT_DOUBLE_EQ(hw_sw.deadline_misses, 0.0); // adaptive meets T
  EXPECT_EQ(hw_sw.switches, 2);                 // two downshifts
  // All three levels actually ran.
  for (double runs : hw_sw.runs_per_level) {
    EXPECT_GT(runs, 0.0);
  }
}

TEST(Discharge, RunsScaleWithCapacity) {
  const VfTable table = VfTable::odroid_xu3_a7();
  const Governor governor = Governor::equal_tranches({5});
  const PowerModel power;
  const ModelSpec spec = ModelSpec::paper_transformer();
  LatencyModel latency;
  latency.calibrate(spec, 0.6426, ExecMode::kBlock, 1400.0, 114.59);
  DischargeConfig cfg;
  cfg.battery_capacity_mj = 1e4;
  const DischargeStats small = simulate_discharge(
      cfg, table, governor, power, latency, spec, {0.6426}, ExecMode::kBlock);
  cfg.battery_capacity_mj = 2e4;
  const DischargeStats big = simulate_discharge(
      cfg, table, governor, power, latency, spec, {0.6426}, ExecMode::kBlock);
  EXPECT_NEAR(big.total_runs / small.total_runs, 2.0, 0.05);
}

// ---------------------------------------------------------------------------
// End-to-end mini pipeline (kept tiny: 2 episodes, short fine-tunes).
// ---------------------------------------------------------------------------

TEST(Pipeline, EndToEndLmRunsAndSatisfiesConstraint) {
  CorpusConfig ccfg;
  ccfg.vocab_size = 32;
  ccfg.num_tokens = 3000;
  ccfg.rule_strength = 0.95;
  const Corpus corpus(ccfg);

  TransformerLmConfig mcfg;
  mcfg.vocab_size = 32;
  mcfg.d_model = 16;
  mcfg.num_heads = 2;
  mcfg.ffn_hidden = 32;
  mcfg.max_seq_len = 16;
  TransformerLm model(mcfg);
  LmTrainingTask task(model, corpus);

  TrainConfig pre;
  pre.steps = 120;
  pre.batch = 8;
  pre.seq_len = 12;
  pre.lr = 8e-3F;
  train(task, pre);

  Rt3Options options;
  options.timing_constraint_ms = 110.0;
  options.episodes = 2;
  options.bp.num_blocks = 4;
  options.bp.prune_fraction = 0.25;
  options.space.psize = 4;
  options.space.patterns_per_set = 2;
  options.space.num_variants = 2;
  options.episode_train.steps = 10;
  options.episode_train.batch = 4;
  options.episode_train.seq_len = 12;
  options.final_train.steps = 20;
  options.final_train.batch = 4;
  options.final_train.seq_len = 12;
  options.backbone_train.steps = 20;
  options.backbone_train.batch = 4;
  options.backbone_train.seq_len = 12;

  Rt3Pipeline pipeline(task, options);
  const Rt3Result result = pipeline.run();

  ASSERT_EQ(result.levels.size(), 3U);
  EXPECT_EQ(result.explored.size(), 2U);
  EXPECT_GT(result.backbone_sparsity, 0.2);
  for (const auto& sub : result.levels) {
    EXPECT_LE(sub.latency_ms, options.timing_constraint_ms * 1.001)
        << sub.level_name;
    EXPECT_GT(sub.overall_sparsity, 0.0);
    EXPECT_GT(sub.runs, 0.0);
  }
  // Switch-cost shape: full model reload is orders slower than pattern swap.
  EXPECT_GT(result.model_switch_ms / result.pattern_switch_ms, 100.0);
  EXPECT_GT(result.total_runs, 0.0);

  // Packaging round trip.
  const DeploymentPackage pkg = pipeline.package(result);
  EXPECT_EQ(pkg.pattern_sets.size(), 3U);
  EXPECT_EQ(pkg.levels.size(), 3U);
  const std::string path = "/tmp/rt3_e2e_pkg.bin";
  pkg.save(path);
  const DeploymentPackage loaded = DeploymentPackage::load(path);
  std::remove(path.c_str());
  EXPECT_EQ(loaded.param_names.size(), pkg.param_names.size());
}

TEST(Pipeline, EndToEndGlueRunsAndSatisfiesConstraint) {
  GlueTaskConfig gcfg;
  gcfg.task = GlueTask::kRte;
  gcfg.vocab_size = 64;
  gcfg.seq_len = 12;
  gcfg.train_size = 200;
  gcfg.dev_size = 80;
  const GlueDataset data(gcfg);
  DistilBertConfig mcfg;
  mcfg.vocab_size = 64;
  mcfg.d_model = 16;
  mcfg.num_heads = 2;
  mcfg.ffn_hidden = 32;
  mcfg.num_layers = 1;
  mcfg.max_seq_len = 16;
  mcfg.num_outputs = data.num_classes();
  DistilBertLike model(mcfg);
  GlueTrainingTask task(model, data);

  TrainConfig pre;
  pre.steps = 40;
  pre.batch = 8;
  train(task, pre);

  // DistilBERT's paper anchor: T = 200 ms at F-mode (RTE M1).
  Rt3Options options;
  options.timing_constraint_ms = 200.0;
  options.episodes = 2;
  options.bp.num_blocks = 4;
  options.bp.prune_fraction = 0.25;
  options.space.psize = 4;
  options.space.patterns_per_set = 2;
  options.space.num_variants = 2;
  options.episode_train.steps = 5;
  options.final_train.steps = 10;
  options.backbone_train.steps = 10;
  Rt3Pipeline pipeline(task, options);
  const Rt3Result result = pipeline.run();

  ASSERT_EQ(result.levels.size(), 3U);
  EXPECT_EQ(result.explored.size(), 2U);
  for (const auto& sub : result.levels) {
    EXPECT_LE(sub.latency_ms, options.timing_constraint_ms * 1.001)
        << sub.level_name;
    EXPECT_TRUE(std::isfinite(sub.accuracy)) << sub.level_name;
    EXPECT_GE(sub.accuracy, 0.0) << sub.level_name;
    EXPECT_LE(sub.accuracy, 1.0) << sub.level_name;
  }
  EXPECT_EQ(pipeline.package(result).pattern_sets.size(), 3U);
}

}  // namespace
}  // namespace rt3
