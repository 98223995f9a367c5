// Edge-case and error-path tests across modules: null handles, broadcast
// rejections, arity checks, boundary configurations.
#include <gtest/gtest.h>

#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "data/corpus.hpp"
#include "nn/transformer_lm.hpp"
#include "perf/model_spec.hpp"
#include "pruning/model_pruner.hpp"
#include "rl/reward.hpp"
#include "runtime/engine.hpp"
#include "search/space.hpp"
#include "serve/traffic.hpp"
#include "tensor/var.hpp"

namespace rt3 {
namespace {

TEST(VarEdge, NullHandleRejected) {
  Var null_var;
  EXPECT_FALSE(null_var.defined());
  EXPECT_THROW(null_var.value(), CheckError);
  EXPECT_THROW(null_var.backward(), CheckError);
  Var ok(Tensor::scalar(1.0F));
  EXPECT_THROW(add(ok, null_var), CheckError);
}

TEST(VarEdge, UnsupportedBroadcastRejected) {
  Var a(Tensor::zeros({2, 3}));
  Var b(Tensor::zeros({2}));  // neither scalar nor last-dim
  EXPECT_THROW(add(a, b), CheckError);
  EXPECT_THROW(mul(a, Var(Tensor::zeros({3, 2}))), CheckError);
}

TEST(VarEdge, MulConstShapeMismatchRejected) {
  Var a(Tensor::zeros({2, 2}));
  EXPECT_THROW(mul_const(a, Tensor::zeros({4})), CheckError);
  EXPECT_THROW(add_const(a, Tensor::zeros({2, 3})), CheckError);
}

TEST(VarEdge, CrossEntropyValidation) {
  Var logits(Tensor::zeros({2, 3}));
  EXPECT_THROW(cross_entropy(logits, {0}), CheckError);        // arity
  EXPECT_THROW(cross_entropy(logits, {0, 5}), CheckError);     // range
  EXPECT_THROW(cross_entropy(logits, {-1, -1}), CheckError);   // all padded
}

TEST(VarEdge, DropoutBoundaryProbabilities) {
  Rng rng(1);
  Var x(Tensor::ones({10}));
  // p = 0 is identity even in training.
  EXPECT_TRUE(dropout(x, 0.0F, rng, true).value().allclose(x.value()));
  // p = 1 rejected (would divide by zero keep-rate).
  EXPECT_THROW(dropout(x, 1.0F, rng, true), CheckError);
}

TEST(VarEdge, EmbeddingRangeChecked) {
  Var w(Tensor::zeros({4, 2}));
  EXPECT_THROW(embedding(w, {4}), CheckError);
  EXPECT_THROW(embedding(w, {-1}), CheckError);
}

TEST(CorpusEdge, ZeroRuleStrengthIsPureZipf) {
  CorpusConfig cfg;
  cfg.vocab_size = 32;
  cfg.num_tokens = 5000;
  cfg.rule_strength = 0.0;
  Corpus corpus(cfg);
  // Oracle can't beat the base rate of Zipf collisions by much.
  EXPECT_LT(corpus.oracle_accuracy(), 0.15);
}

TEST(CorpusEdge, ConfigValidation) {
  CorpusConfig bad;
  bad.vocab_size = 2;
  EXPECT_THROW(Corpus{bad}, CheckError);
  CorpusConfig bad2;
  bad2.rule_strength = 1.5;
  EXPECT_THROW(Corpus{bad2}, CheckError);
}

TEST(ModelSpecEdge, MacArithmetic) {
  ModelSpec spec;
  spec.name = "toy";
  spec.tokens_per_inference = 10;
  spec.layers.push_back({"w", 100, 50, 2});  // used twice per token
  // 2 * r * c * uses * tokens = 2*100*50*2*10
  EXPECT_DOUBLE_EQ(spec.dense_macs(), 2.0 * 100 * 50 * 2 * 10);
  EXPECT_EQ(spec.total_weights(), 5000);
  EXPECT_EQ(spec.dense_bytes(), 20000);
}

TEST(PrunerEdge, RejectsEmptyAndNull) {
  EXPECT_THROW(ModelPruner({}), CheckError);
  std::vector<Linear*> with_null = {nullptr};
  EXPECT_THROW(ModelPruner{with_null}, CheckError);
}

TEST(RewardEdge, SingleLevelCondVacuouslyTrue) {
  RewardInputs in;
  in.latencies_ms = {50.0};
  in.accuracies = {0.8};
  in.runs = {1e5};
  in.timing_constraint_ms = 100.0;
  in.backbone_accuracy = 0.9;
  in.min_accuracy = 0.4;
  in.runs_reference = 1e6;
  const RewardResult r = compute_reward(in);
  EXPECT_TRUE(r.ordering_ok);  // no pair to violate
  EXPECT_TRUE(r.feasible);
}

TEST(RewardEdge, EqualAccuraciesViolateStrictOrdering) {
  RewardInputs in;
  in.latencies_ms = {50.0, 60.0};
  in.accuracies = {0.8, 0.8};  // equal, not strictly decreasing
  in.runs = {1e5, 1e5};
  in.timing_constraint_ms = 100.0;
  in.backbone_accuracy = 0.9;
  in.min_accuracy = 0.4;
  in.runs_reference = 1e6;
  EXPECT_FALSE(compute_reward(in).ordering_ok);
}

TEST(EngineEdge, RequiresBackboneAndValidLevels) {
  Rng rng(2);
  auto layer = std::make_unique<Linear>(8, 8, rng);
  std::vector<Linear*> raw = {layer.get()};
  ModelPruner pruner(raw);
  PatternSet set;
  set.patterns.push_back(Pattern::dense(4));
  // No backbone frozen yet -> engine construction fails.
  EXPECT_THROW(ReconfigEngine(pruner, {set}, SwitchCostModel(),
                              ModelSpec::paper_transformer(), 100),
               CheckError);
  pruner.freeze_backbone();
  ReconfigEngine engine(pruner, {set}, SwitchCostModel(),
                        ModelSpec::paper_transformer(), 100);
  EXPECT_THROW(engine.switch_to(5), CheckError);
  EXPECT_THROW(engine.switch_to(-1), CheckError);
}

TEST(EngineEdge, NonTilingPatternSetFailsAtConstruction) {
  Rng rng(2);
  auto layer = std::make_unique<Linear>(8, 8, rng);
  std::vector<Linear*> raw = {layer.get()};
  ModelPruner pruner(raw);
  pruner.freeze_backbone();
  PatternSet tiles;
  tiles.patterns.push_back(Pattern::dense(4));
  PatternSet ragged;
  ragged.patterns.push_back(Pattern::dense(3));  // 3 does not tile 8
  // The bad level is named when the engine is built, before any switch.
  try {
    ReconfigEngine engine(pruner, {tiles, ragged}, SwitchCostModel(),
                          ModelSpec::paper_transformer(), 100);
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("multiples of psize"),
              std::string::npos)
        << e.what();
  }
  EXPECT_FALSE(pruner.layers()[0]->has_mask());  // nothing was installed
}

TEST(SpaceEdge, ImportanceSkipsNonTileableLayers) {
  Rng rng(3);
  auto tileable = std::make_unique<Linear>(16, 16, rng);
  auto ragged = std::make_unique<Linear>(10, 6, rng);  // not /8
  std::vector<Linear*> layers = {tileable.get(), ragged.get()};
  Rng map_rng(4);
  const Tensor imp = importance_from_layers(layers, 8, map_rng);
  EXPECT_EQ(imp.shape(), (Shape{8, 8}));
  EXPECT_GT(imp.sum(), 0.0F);  // tileable layer contributed
}

TEST(SpaceEdge, VariantIndexValidation) {
  Rng rng(5);
  auto layer = std::make_unique<Linear>(16, 16, rng);
  std::vector<Linear*> raw = {layer.get()};
  const ModelSpec spec = ModelSpec::paper_transformer();
  LatencyModel latency;
  latency.calibrate(spec, 0.6426, ExecMode::kBlock, 1400.0, 114.59);
  const VfTable table = VfTable::odroid_xu3_a7();
  SearchSpaceConfig cfg;
  cfg.psize = 4;
  cfg.patterns_per_set = 2;
  cfg.num_variants = 2;
  const auto space = PatternSearchSpace::build(
      cfg, {table.level(5)}, spec, latency, raw, 0.3);
  EXPECT_THROW(space.variant(-1, 0), CheckError);
  EXPECT_THROW(space.variant(0, 2), CheckError);
  EXPECT_THROW(space.sparsity_at(space.grid_size()), CheckError);
}

TEST(LmEdge, ForwardValidatesIdCount) {
  TransformerLmConfig cfg;
  cfg.vocab_size = 16;
  cfg.d_model = 8;
  cfg.num_heads = 2;
  cfg.ffn_hidden = 16;
  TransformerLm lm(cfg);
  std::vector<std::int64_t> ids(7, 0);  // not batch*seq_len
  EXPECT_THROW(lm.forward(ids, 2, 4), CheckError);
}

TEST(LmEdge, SequenceLengthCapEnforced) {
  TransformerLmConfig cfg;
  cfg.vocab_size = 16;
  cfg.d_model = 8;
  cfg.num_heads = 2;
  cfg.ffn_hidden = 16;
  cfg.max_seq_len = 4;
  TransformerLm lm(cfg);
  std::vector<std::int64_t> ids(8, 0);
  EXPECT_THROW(lm.forward(ids, 1, 8), CheckError);  // 8 > max_seq_len
  EXPECT_NO_THROW(lm.forward(ids, 2, 4));
}

TEST(LatencyEdge, InvalidInputsRejected) {
  const ModelSpec spec = ModelSpec::paper_transformer();
  const LatencyModel model;
  EXPECT_THROW(model.latency_ms(spec, 1.0, ExecMode::kDense, 1000.0),
               CheckError);  // sparsity 1.0 => zero work, undefined
  EXPECT_THROW(model.latency_ms(spec, 0.5, ExecMode::kDense, 0.0),
               CheckError);
  EXPECT_THROW(model.latency_ms(spec, -0.1, ExecMode::kDense, 1000.0),
               CheckError);
}

TEST(GovernorEdge, BoundaryFractions) {
  const Governor gov = Governor::equal_tranches({5, 3, 2});
  EXPECT_NO_THROW(gov.level_for(0.0));
  EXPECT_NO_THROW(gov.level_for(1.0));
  EXPECT_THROW(gov.level_for(-0.1), CheckError);
  EXPECT_THROW(gov.level_for(1.1), CheckError);
}

TEST(BatteryEdge, ZeroAndNegativeGuards) {
  EXPECT_THROW(Battery{0.0}, CheckError);
  Battery b(10.0);
  EXPECT_THROW(b.drain(-1.0), CheckError);
  EXPECT_TRUE(b.drain(0.0));  // no-op drain allowed
  EXPECT_NEAR(b.fraction(), 1.0, 1e-12);
}

TEST(TrafficEdge, NonFiniteAndOversizedConfigsNameTheField) {
  // An infinite rate would hang the thinning loop and an out-of-range
  // expected count would overflow reserve(); each must raise a CheckError
  // that names the field instead.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<std::pair<std::string, std::function<void(TrafficConfig&)>>>
      cases = {
          {"rate_rps", [](TrafficConfig& c) { c.rate_rps = kInf; }},
          {"rate_rps", [](TrafficConfig& c) { c.rate_rps = kNan; }},
          {"rate_rps", [](TrafficConfig& c) { c.rate_rps = 1e300; }},
          {"duration_ms", [](TrafficConfig& c) { c.duration_ms = kInf; }},
          {"duration_ms", [](TrafficConfig& c) { c.duration_ms = 1e300; }},
          {"deadline_slack_ms",
           [](TrafficConfig& c) { c.deadline_slack_ms = kInf; }},
          {"deadline_slack_jitter",
           [](TrafficConfig& c) { c.deadline_slack_jitter = kNan; }},
          {"tight_fraction", [](TrafficConfig& c) { c.tight_fraction = kNan; }},
          {"tight_slack_ms", [](TrafficConfig& c) { c.tight_slack_ms = kInf; }},
          {"burst_on_ms", [](TrafficConfig& c) { c.burst_on_ms = kInf; }},
          {"burst_off_ms", [](TrafficConfig& c) { c.burst_off_ms = kInf; }},
          {"burst_factor", [](TrafficConfig& c) { c.burst_factor = kInf; }},
          {"diurnal_min_factor",
           [](TrafficConfig& c) { c.diurnal_min_factor = kNan; }},
          {"model_weights",
           [](TrafficConfig& c) {
             c.num_models = 2;
             c.model_weights = {1.0, kInf};
           }},
      };
  for (const auto& [field, mutate] : cases) {
    TrafficConfig config;
    mutate(config);
    try {
      (void)generate_traffic(config);
      ADD_FAILURE() << field << ": accepted";
    } catch (const CheckError& e) {
      EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
          << field << ": " << e.what();
    }
  }
}

}  // namespace
}  // namespace rt3
