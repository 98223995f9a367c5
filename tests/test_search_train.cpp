// Tests for search-space generation and the Fig.-2 joint trainer.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "common/check.hpp"
#include "data/corpus.hpp"
#include "data/glue.hpp"
#include "nn/distilbert.hpp"
#include "nn/transformer_lm.hpp"
#include "pruning/model_pruner.hpp"
#include "search/space.hpp"
#include "train/task.hpp"
#include "train/trainer.hpp"

namespace rt3 {
namespace {

class SpaceFixture : public ::testing::Test {
 protected:
  SpaceFixture() : rng_(1) {
    for (int i = 0; i < 4; ++i) {
      layers_.push_back(std::make_unique<Linear>(32, 32, rng_));
      raw_.push_back(layers_.back().get());
    }
    spec_ = ModelSpec::paper_transformer();
    latency_.calibrate(spec_, 0.6426, ExecMode::kBlock, 1400.0, 114.59);
    const VfTable table = VfTable::odroid_xu3_a7();
    for (std::int64_t i : {5, 3, 2}) {
      levels_.push_back(table.level(i));
    }
  }
  Rng rng_;
  std::vector<std::unique_ptr<Linear>> layers_;
  std::vector<Linear*> raw_;
  ModelSpec spec_;
  LatencyModel latency_;
  std::vector<VfLevel> levels_;
};

TEST_F(SpaceFixture, ImportanceReflectsMaskedWeights) {
  // Mask one layer entirely; importance must come from the others only.
  raw_[0]->set_mask(Tensor::zeros({32, 32}));
  Rng rng(2);
  const Tensor imp = importance_from_layers(raw_, 8, rng);
  EXPECT_EQ(imp.shape(), (Shape{8, 8}));
  EXPECT_GT(imp.sum(), 0.0F);
}

TEST_F(SpaceFixture, PatternSetFromLayersHasRequestedShape) {
  Rng rng(3);
  const PatternSet set = pattern_set_from_layers(raw_, 8, 0.5, 4, rng);
  EXPECT_EQ(set.patterns.size(), 4U);
  EXPECT_EQ(set.psize(), 8);
  EXPECT_NEAR(set.sparsity(), 0.5, 0.02);
}

TEST_F(SpaceFixture, BuildGridIsSortedAndDeduped) {
  SearchSpaceConfig cfg;
  cfg.timing_constraint_ms = 110.0;
  cfg.theta = 3;
  cfg.psize = 8;
  cfg.patterns_per_set = 3;
  cfg.num_variants = 2;
  const PatternSearchSpace space = PatternSearchSpace::build(
      cfg, levels_, spec_, latency_, raw_, 0.5);
  ASSERT_GE(space.grid_size(), 2);
  for (std::int64_t g = 1; g < space.grid_size(); ++g) {
    EXPECT_GT(space.sparsity_at(g), space.sparsity_at(g - 1) + 0.009);
  }
  EXPECT_EQ(space.num_variants(), 2);
  // Every grid point has usable variants of the right sparsity.
  for (std::int64_t g = 0; g < space.grid_size(); ++g) {
    for (std::int64_t v = 0; v < space.num_variants(); ++v) {
      EXPECT_NEAR(space.variant(g, v).sparsity(), space.sparsity_at(g), 0.05);
    }
  }
}

TEST_F(SpaceFixture, SlowerLevelsNeedSparserCandidates) {
  // The lowest frequency must map to the highest required sparsity: the
  // largest grid entry must exceed what the fastest level needs.
  SearchSpaceConfig cfg;
  cfg.timing_constraint_ms = 110.0;
  cfg.theta = 1;  // exactly one candidate per level
  cfg.psize = 8;
  cfg.num_variants = 1;
  const PatternSearchSpace space = PatternSearchSpace::build(
      cfg, levels_, spec_, latency_, raw_, 0.5);
  // With theta=1 and 3 distinct frequencies the grid has distinct needs.
  EXPECT_GE(space.grid_size(), 2);
}

TEST_F(SpaceFixture, HeuristicChoiceSatisfiesConstraint) {
  SearchSpaceConfig cfg;
  cfg.timing_constraint_ms = 110.0;
  cfg.theta = 3;
  cfg.psize = 8;
  cfg.num_variants = 1;
  const double backbone_sparsity = 0.5;
  const PatternSearchSpace space = PatternSearchSpace::build(
      cfg, levels_, spec_, latency_, raw_, backbone_sparsity);
  for (const auto& level : levels_) {
    const std::int64_t g = space.heuristic_choice_for_level(
        level, spec_, latency_, ExecMode::kPattern, 110.0, backbone_sparsity);
    EXPECT_GE(g, 0);
    EXPECT_LT(g, space.grid_size());
    // Composed sparsity is bounded below by the grid sparsity (pattern
    // kept positions align with the backbone), so the conservative bound
    // must already satisfy T under the same latency model.
    const double composed_lower_bound =
        std::max(backbone_sparsity, space.sparsity_at(g));
    EXPECT_LE(latency_.latency_ms(spec_, composed_lower_bound,
                                  ExecMode::kPattern, level.freq_mhz),
              110.0 * 1.05);
  }
}

// ---------------------------------------------------------------------------
// Joint trainer
// ---------------------------------------------------------------------------

class JointFixture : public ::testing::Test {
 protected:
  JointFixture() {
    CorpusConfig ccfg;
    ccfg.vocab_size = 32;
    ccfg.num_tokens = 3000;
    ccfg.rule_strength = 0.95;
    corpus_ = std::make_unique<Corpus>(ccfg);

    TransformerLmConfig cfg;
    cfg.vocab_size = 32;
    cfg.d_model = 16;
    cfg.num_heads = 2;
    cfg.ffn_hidden = 32;
    cfg.max_seq_len = 16;
    model_ = std::make_unique<TransformerLm>(cfg);
    task_ = std::make_unique<LmTrainingTask>(*model_, *corpus_);
  }
  std::unique_ptr<Corpus> corpus_;
  std::unique_ptr<TransformerLm> model_;
  std::unique_ptr<LmTrainingTask> task_;
};

TEST_F(JointFixture, CopyParametersClones) {
  TransformerLm clone(model_->config());
  copy_parameters(clone, *model_);
  const auto a = model_->named_parameters();
  const auto b = clone.named_parameters();
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_TRUE(a[i].param.value().allclose(b[i].param.value()));
  }
}

TEST_F(JointFixture, TrainLmImproves) {
  TrainConfig cfg;
  cfg.steps = 80;
  cfg.batch = 8;
  cfg.seq_len = 12;
  cfg.lr = 8e-3F;
  const double before = task_->dev_metric(8, 16);
  const double after = train(*task_, cfg);
  EXPECT_GT(after, before);
}

TEST_F(JointFixture, GroupLassoShrinksColumnNorms) {
  TrainConfig cfg;
  cfg.steps = 40;
  cfg.batch = 4;
  cfg.seq_len = 8;
  cfg.lr = 5e-3F;
  cfg.group_lasso_lambda = 5e-3F;
  cfg.lasso_blocks = 4;
  // Norm of the weakest half of columns before/after lasso training: the
  // regularizer should push weak groups down relative to total.
  const Tensor before = model_->prunable()[0]->weight().value();
  train(*task_, cfg);
  const Tensor after = model_->prunable()[0]->weight().value();
  EXPECT_LT(after.l2_norm(), before.l2_norm() * 1.5F);  // no blow-up
}

TEST_F(JointFixture, JointTrainingReturnsPerSetAccuracy) {
  ModelPruner pruner(model_->prunable());
  BpConfig bp;
  bp.num_blocks = 4;
  bp.prune_fraction = 0.25;
  pruner.apply_bp(bp);

  Rng rng(4);
  std::vector<PatternSet> sets;
  sets.push_back(random_pattern_set(4, 0.25, 3, rng));
  sets.push_back(random_pattern_set(4, 0.5, 3, rng));

  TrainConfig cfg;
  cfg.steps = 30;
  cfg.batch = 8;
  cfg.seq_len = 12;
  cfg.lr = 8e-3F;
  const JointTrainResult result =
      joint_train(*task_, pruner, sets, cfg);
  ASSERT_EQ(result.per_set_accuracy.size(), 2U);
  for (double acc : result.per_set_accuracy) {
    EXPECT_GE(acc, 0.0);
    EXPECT_LE(acc, 1.0);
  }
}

TEST_F(JointFixture, JointTrainingTrainsAllSets) {
  // After joint training, BOTH pattern-set configurations must beat an
  // untrained model by a wide margin (the shared-backbone property).
  ModelPruner pruner(model_->prunable());
  pruner.freeze_backbone();

  Rng rng(5);
  std::vector<PatternSet> sets;
  sets.push_back(random_pattern_set(4, 0.2, 3, rng));
  sets.push_back(random_pattern_set(4, 0.4, 3, rng));

  TrainConfig cfg;
  cfg.steps = 150;
  cfg.batch = 8;
  cfg.seq_len = 12;
  cfg.lr = 8e-3F;
  const JointTrainResult result =
      joint_train(*task_, pruner, sets, cfg);
  EXPECT_GT(result.per_set_accuracy[0], 0.4);
  EXPECT_GT(result.per_set_accuracy[1], 0.3);
  // Larger-capacity (less sparse) set should not be much worse.
  EXPECT_GT(result.per_set_accuracy[0] + 0.1, result.per_set_accuracy[1]);
}

TEST_F(JointFixture, WeightedLossRespectsAlphas) {
  ModelPruner pruner(model_->prunable());
  pruner.freeze_backbone();
  Rng rng(6);
  std::vector<PatternSet> sets;
  sets.push_back(random_pattern_set(4, 0.3, 2, rng));
  sets.push_back(random_pattern_set(4, 0.9, 2, rng));
  TrainConfig cfg;
  cfg.steps = 60;
  cfg.batch = 8;
  cfg.seq_len = 12;
  cfg.lr = 8e-3F;
  // All weight on set 0: its accuracy should come out at least as good as
  // the heavily-sparse set's.
  const JointTrainResult result =
      joint_train(*task_, pruner, sets, cfg, {1.0, 0.0});
  EXPECT_GE(result.per_set_accuracy[0] + 0.05, result.per_set_accuracy[1]);
}

TEST_F(JointFixture, RejectsEmptySets) {
  ModelPruner pruner(model_->prunable());
  pruner.freeze_backbone();
  TrainConfig cfg;
  EXPECT_THROW(joint_train(*task_, pruner, {}, cfg), CheckError);
}

TEST(GlueJointTraining, ReturnsOneScorePerSetAndMovesTheBackbone) {
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

  ModelPruner pruner(task.prunable());
  pruner.freeze_backbone();
  const Tensor before = task.prunable()[0]->weight().value();
  Rng rng(7);
  std::vector<PatternSet> sets;
  sets.push_back(random_pattern_set(4, 0.25, 2, rng));
  sets.push_back(random_pattern_set(4, 0.5, 2, rng));
  sets.push_back(random_pattern_set(4, 0.75, 2, rng));
  TrainConfig cfg;
  cfg.steps = 10;
  cfg.batch = 8;
  const JointTrainResult result = joint_train(task, pruner, sets, cfg);

  ASSERT_EQ(result.per_set_accuracy.size(), sets.size());
  for (double score : result.per_set_accuracy) {
    EXPECT_TRUE(std::isfinite(score));
    EXPECT_GE(score, 0.0);  // RTE is scored by accuracy
    EXPECT_LE(score, 1.0);
  }
  EXPECT_FALSE(task.prunable()[0]->weight().value().allclose(before));
}

}  // namespace
}  // namespace rt3
