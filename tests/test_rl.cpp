// Tests for the RL layer: GRU (the taped forward, and the tape-free
// inference step with Linear::forward_row bitwise against it), Eq. (1)
// reward, controller sampling and REINFORCE learning on a bandit-style
// synthetic objective.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "common/check.hpp"
#include "rl/controller.hpp"
#include "rl/gru.hpp"
#include "rl/reward.hpp"
#include "tensor/gradcheck.hpp"

namespace rt3 {
namespace {

TEST(Gru, OutputShapeAndRange) {
  Rng rng(1);
  GruCell cell(4, 6, rng);
  Var x(Tensor::randn({2, 4}, rng));
  Var h = cell.initial_state(2);
  const Var h2 = cell.forward(x, h);
  EXPECT_EQ(h2.shape(), (Shape{2, 6}));
  // Convex combination of h (= 0) and tanh output: all values in (-1, 1).
  for (std::int64_t i = 0; i < h2.numel(); ++i) {
    EXPECT_LT(std::abs(h2.value()[i]), 1.0F);
  }
}

TEST(Gru, StatePropagatesInformation) {
  Rng rng(2);
  GruCell cell(3, 5, rng);
  Var x1(Tensor::randn({1, 3}, rng));
  Var x2(Tensor::randn({1, 3}, rng));
  Var h0 = cell.initial_state(1);
  const Var ha = cell.forward(x2, cell.forward(x1, h0));
  const Var hb = cell.forward(x2, h0);
  // History must matter: h after (x1, x2) differs from h after just x2.
  EXPECT_FALSE(ha.value().allclose(hb.value(), 1e-6F));
}

TEST(Gru, GradientsFlowThroughTime) {
  Rng rng(3);
  GruCell cell(2, 3, rng);
  Var x(Tensor::randn({1, 2}, rng), true);
  Var h = cell.initial_state(1);
  Var h1 = cell.forward(x, h);
  Var h2 = cell.forward(x, h1);
  sum_all(h2).backward();
  // Input used at both steps accumulates a nonzero gradient.
  float total = 0.0F;
  for (std::int64_t i = 0; i < x.grad().numel(); ++i) {
    total += std::abs(x.grad()[i]);
  }
  EXPECT_GT(total, 0.0F);
}

// Inputs that exercise every branch of the tape-free row ops: exact zeros
// (matmul2d's skip), negatives, and magnitudes large enough to saturate
// sigmoid and tanh.
float edge_value(Rng& rng) {
  const double u = rng.uniform();
  if (u < 0.2) {
    return 0.0F;
  }
  if (u < 0.3) {
    return static_cast<float>(rng.uniform(-1e5, 1e5));
  }
  return static_cast<float>(rng.normal(0.0, 2.0));
}

TEST(Linear, ForwardRowBitwiseMatchesForward) {
  struct Case {
    std::int64_t in;
    std::int64_t out;
    bool bias;
  };
  for (const Case c : {Case{1, 1, true}, Case{4, 16, true}, Case{16, 3, true},
                       Case{33, 33, false}, Case{7, 5, false}}) {
    Rng rng(static_cast<std::uint64_t>(100 * c.in + c.out));
    Linear layer(c.in, c.out, rng, c.bias);
    if (c.bias) {  // non-zero biases, so the + bias pass is exercised
      Tensor& b = layer.bias().mutable_value();
      for (std::int64_t j = 0; j < c.out; ++j) {
        b[j] = edge_value(rng);
      }
    }
    std::vector<float> x(static_cast<std::size_t>(c.in));
    std::vector<float> y(static_cast<std::size_t>(c.out));
    for (int row = 0; row < 1000; ++row) {
      for (float& v : x) {
        v = edge_value(rng);
      }
      layer.forward_row(x.data(), y.data());
      const Var ref = layer.forward(Var(Tensor({1, c.in}, x)));
      ASSERT_EQ(std::memcmp(y.data(), ref.value().data(),
                            y.size() * sizeof(float)),
                0)
          << c.in << "x" << c.out << " row " << row;
    }
  }
}

TEST(Linear, ForwardRowRejectsMaskedLayer) {
  Rng rng(8);
  Linear layer(3, 2, rng);
  const std::vector<float> x = {1.0F, 0.0F, -2.0F};
  std::vector<float> y(2);
  layer.set_mask(Tensor({3, 2}, {1, 0, 1, 1, 0, 1}));
  EXPECT_THROW(layer.forward_row(x.data(), y.data()), CheckError);
  layer.clear_mask();
  EXPECT_NO_THROW(layer.forward_row(x.data(), y.data()));
}

TEST(Gru, InferenceStepBitwiseMatchesTapeForward) {
  constexpr std::int64_t kInput = 4;
  for (const std::int64_t hidden : {1, 16, 33}) {
    Rng rng(static_cast<std::uint64_t>(40 + hidden));
    GruCell cell(kInput, hidden, rng);
    for (const NamedParam& np : cell.named_parameters()) {
      if (np.name.ends_with("bias")) {  // zero at init; make them count
        Var bias = np.param;
        Tensor& b = bias.mutable_value();
        for (std::int64_t j = 0; j < b.numel(); ++j) {
          b[j] = static_cast<float>(rng.normal(0.0, 1.0));
        }
      }
    }
    std::vector<float> x(kInput);
    std::vector<float> h(static_cast<std::size_t>(hidden), 0.0F);
    std::vector<float> scratch(
        static_cast<std::size_t>(cell.step_scratch_size()));
    Var h_ref = cell.initial_state(1);
    for (int step = 0; step < 1200; ++step) {
      for (float& v : x) {
        v = edge_value(rng);
      }
      cell.step(x.data(), h.data(), scratch.data());
      h_ref = Var(cell.forward(Var(Tensor({1, kInput}, x)), h_ref).value());
      ASSERT_EQ(std::memcmp(h.data(), h_ref.value().data(),
                            h.size() * sizeof(float)),
                0)
          << "hidden " << hidden << " step " << step;
    }
  }
}

// ---------------------------------------------------------------------------
// Reward function: the three cases of Eq. (1).
// ---------------------------------------------------------------------------

RewardInputs feasible_inputs() {
  RewardInputs in;
  in.latencies_ms = {90.0, 95.0, 100.0};
  in.accuracies = {0.95, 0.93, 0.90};
  in.runs = {1e5, 2e5, 3e5};
  in.timing_constraint_ms = 110.0;
  in.backbone_accuracy = 0.96;
  in.min_accuracy = 0.5;
  in.runs_reference = 1e6;
  return in;
}

TEST(Reward, TimingViolationCase) {
  RewardInputs in = feasible_inputs();
  in.latencies_ms[2] = 200.0;  // violates T
  in.accuracies.clear();       // paper: no fine-tuning on violation
  const RewardResult r = compute_reward(in);
  EXPECT_FALSE(r.feasible);
  EXPECT_NEAR(r.value, -1.0 + 0.6, 1e-9);  // -1 + Rruns, Rruns = 6e5/1e6
}

TEST(Reward, FeasibleOrderedCase) {
  const RewardResult r = compute_reward(feasible_inputs());
  EXPECT_TRUE(r.feasible);
  EXPECT_TRUE(r.ordering_ok);
  const double aw = (0.95 + 0.93 + 0.90) / 3.0;
  EXPECT_NEAR(r.weighted_accuracy, aw, 1e-12);
  EXPECT_NEAR(r.value, (aw - 0.5) / (0.96 - 0.5) + 0.6, 1e-9);
}

TEST(Reward, OrderingPenaltyCase) {
  RewardInputs in = feasible_inputs();
  in.accuracies = {0.90, 0.93, 0.95};  // slow level MORE accurate: cond=false
  in.penalty = 0.3;
  const RewardResult r = compute_reward(in);
  EXPECT_TRUE(r.feasible);
  EXPECT_FALSE(r.ordering_ok);
  const RewardInputs ordered = feasible_inputs();
  // Same weighted accuracy but penalized.
  EXPECT_NEAR(compute_reward(ordered).value - r.value, 0.3, 1e-9);
}

TEST(Reward, RunsRewardClampedToOne) {
  RewardInputs in = feasible_inputs();
  in.runs = {1e7, 1e7, 1e7};
  const RewardResult r = compute_reward(in);
  EXPECT_DOUBLE_EQ(r.runs_reward, 1.0);
}

TEST(Reward, CustomLevelWeights) {
  RewardInputs in = feasible_inputs();
  in.level_weights = {1.0, 0.0, 0.0};
  const RewardResult r = compute_reward(in);
  EXPECT_NEAR(r.weighted_accuracy, 0.95, 1e-12);
}

TEST(Reward, HigherAccuracyHigherReward) {
  RewardInputs lo = feasible_inputs();
  RewardInputs hi = feasible_inputs();
  hi.accuracies = {0.96, 0.94, 0.92};
  EXPECT_GT(compute_reward(hi).value, compute_reward(lo).value);
}

TEST(Reward, RejectsMalformedInputs) {
  RewardInputs in = feasible_inputs();
  in.runs.pop_back();
  EXPECT_THROW(compute_reward(in), CheckError);
  RewardInputs in2 = feasible_inputs();
  in2.accuracies.pop_back();  // feasible but wrong arity
  EXPECT_THROW(compute_reward(in2), CheckError);
}

// ---------------------------------------------------------------------------
// Controller
// ---------------------------------------------------------------------------

TEST(Controller, SampleShapesAndRanges) {
  ControllerConfig cfg;
  cfg.num_levels = 3;
  cfg.num_sparsity_choices = 5;
  cfg.num_variants = 2;
  RlController controller(cfg);
  Rng rng(4);
  const EpisodeSample ep = controller.sample(rng);
  ASSERT_EQ(ep.sparsity_choice.size(), 3U);
  ASSERT_EQ(ep.variant_choice.size(), 3U);
  for (auto c : ep.sparsity_choice) {
    EXPECT_GE(c, 0);
    EXPECT_LT(c, 5);
  }
  for (auto c : ep.variant_choice) {
    EXPECT_GE(c, 0);
    EXPECT_LT(c, 2);
  }
  EXPECT_TRUE(ep.log_prob_sum.defined());
  EXPECT_LT(ep.log_prob_sum.item(), 0.0F);  // log-probs are negative
}

TEST(Controller, GreedyIsDeterministic) {
  ControllerConfig cfg;
  cfg.num_levels = 2;
  cfg.num_sparsity_choices = 4;
  cfg.num_variants = 3;
  RlController controller(cfg);
  const EpisodeSample a = controller.sample_greedy();
  const EpisodeSample b = controller.sample_greedy();
  EXPECT_EQ(a.sparsity_choice, b.sparsity_choice);
  EXPECT_EQ(a.variant_choice, b.variant_choice);
}

TEST(Controller, LearnsBanditObjective) {
  // Reward 1 when every level picks sparsity index 2 and variant 1,
  // partial credit otherwise.  REINFORCE must concentrate on the optimum.
  ControllerConfig cfg;
  cfg.num_levels = 2;
  cfg.num_sparsity_choices = 4;
  cfg.num_variants = 2;
  cfg.learning_rate = 0.05F;
  cfg.seed = 5;
  RlController controller(cfg);
  Rng rng(6);
  for (int episode = 0; episode < 150; ++episode) {
    const EpisodeSample ep = controller.sample(rng);
    double reward = 0.0;
    for (std::size_t i = 0; i < 2; ++i) {
      reward += (ep.sparsity_choice[i] == 2 ? 0.35 : 0.0);
      reward += (ep.variant_choice[i] == 1 ? 0.15 : 0.0);
    }
    controller.update(ep, reward);
  }
  const EpisodeSample greedy = controller.sample_greedy();
  EXPECT_EQ(greedy.sparsity_choice, (std::vector<std::int64_t>{2, 2}));
  EXPECT_EQ(greedy.variant_choice, (std::vector<std::int64_t>{1, 1}));
}

TEST(Controller, BaselineTracksRewards) {
  ControllerConfig cfg;
  cfg.num_levels = 1;
  cfg.num_sparsity_choices = 2;
  cfg.num_variants = 2;
  cfg.baseline_decay = 0.5F;
  RlController controller(cfg);
  Rng rng(7);
  controller.update(controller.sample(rng), 1.0);
  EXPECT_NEAR(controller.baseline(), 1.0, 1e-12);  // initialized to first
  controller.update(controller.sample(rng), 0.0);
  EXPECT_NEAR(controller.baseline(), 0.5, 1e-12);
}

TEST(Controller, ParamsRegistered) {
  ControllerConfig cfg;
  RlController controller(cfg);
  // embeddings + 6 GRU mats (3 with bias) + 2 heads with bias.
  EXPECT_GT(controller.parameters().size(), 10U);
}

}  // namespace
}  // namespace rt3
