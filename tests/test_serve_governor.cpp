// The GovernorPolicy seam: LadderPolicy bitwise equivalence across the
// serve grid, Governor ladder validation, the adaptive-margin controller's
// EWMA window, and the learned RL governor — decision determinism under a
// fixed seed, reward monotonicity, the train/serialize/reload round-trip
// behind `rt3 train-governor`, and the tape-free greedy decide (bitwise
// the taped network's choice, no heap allocation).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "rl/governor.hpp"
#include "serve/governor_policy.hpp"
#include "serve/server.hpp"
#include "serve/session.hpp"
#include "serve/traffic.hpp"

#include "heap_counter.hpp"

namespace rt3 {
namespace {

Governor paper_governor() {
  return Governor::equal_tranches(paper_serve_ladder());
}

TEST(DeadlinePressure, EdgeCasesAndInterpolation) {
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_DOUBLE_EQ(deadline_pressure(100.0, inf, 20.0), 0.0);
  EXPECT_DOUBLE_EQ(deadline_pressure(100.0, 110.0, 0.0), 1.0);
  // Halfway through the oldest request's max-wait budget.
  EXPECT_DOUBLE_EQ(deadline_pressure(90.0, 100.0, 20.0), 0.5);
  // Clamped on both sides.
  EXPECT_DOUBLE_EQ(deadline_pressure(0.0, 1000.0, 20.0), 0.0);
  EXPECT_DOUBLE_EQ(deadline_pressure(200.0, 100.0, 20.0), 1.0);
}

// The seam's core contract: a session under the default governor (a bare
// ladder wrapped by the GovernorHandle) is byte-identical to one under an
// explicitly constructed LadderPolicy, across scenarios and with the
// governor-aware batching margin both off and on.
TEST(LadderPolicy, SessionsAreBitwiseIdenticalAcrossConstructionPaths) {
  for (const TrafficScenario scenario :
       {TrafficScenario::kSteady, TrafficScenario::kBurst,
        TrafficScenario::kDiurnal}) {
    for (const double margin : {0.0, 0.05}) {
      TrafficConfig tcfg;
      tcfg.scenario = scenario;
      tcfg.rate_rps = 3.0;
      tcfg.duration_ms = 30'000.0;
      const std::vector<Request> schedule = generate_traffic(tcfg);

      ServeSessionConfig implicit;  // GovernorKind::kLadder default
      implicit.governor_margin = margin;
      ServeSession a(implicit);

      ServeSessionConfig explicit_policy = implicit;
      explicit_policy.governor_policy =
          std::make_shared<LadderPolicy>(paper_governor());
      ServeSession b(explicit_policy);

      EXPECT_EQ(a.server().serve(schedule).to_json(),
                b.server().serve(schedule).to_json())
          << traffic_scenario_name(scenario) << " margin " << margin;
    }
  }
}

TEST(GovernorValidation, RejectsMalformedLadders) {
  try {
    Governor({5, 3, 2}, {0.6});
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("3 levels need 2 thresholds, got 1"),
              std::string::npos)
        << e.what();
  }
  try {
    Governor({5, 3}, {1.5});
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("out of (0, 1)"), std::string::npos)
        << e.what();
  }
  EXPECT_THROW(Governor({5, 3}, {std::nan("")}), CheckError);
  try {
    Governor({5, 3, 2}, {0.3, 0.6});
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("strictly descending"),
              std::string::npos)
        << e.what();
  }
  // Equal thresholds are not strictly descending either.
  EXPECT_THROW(Governor({5, 3, 2}, {0.5, 0.5}), CheckError);
}

TEST(AdaptiveMarginPolicy, WindowTracksDrainEwmaBetweenFloorAndCap) {
  AdaptiveMarginPolicy policy(paper_governor());
  // Before any feedback the window collapses to the configured floor.
  EXPECT_DOUBLE_EQ(policy.shrink_margin(0.0), 0.0);
  EXPECT_DOUBLE_EQ(policy.shrink_margin(0.05), 0.05);

  BatchOutcome fb;
  fb.drain_fraction = 0.01;
  policy.observe_batch(fb);  // first observation seeds the EWMA
  EXPECT_DOUBLE_EQ(policy.drain_ewma(), 0.01);
  EXPECT_DOUBLE_EQ(policy.shrink_margin(0.0), 0.02);  // 2 batches of drain

  fb.drain_fraction = 0.03;
  policy.observe_batch(fb);
  EXPECT_DOUBLE_EQ(policy.drain_ewma(), 0.01 + 0.2 * 0.02);
  // The configured margin stays a floor under the adaptive window.
  EXPECT_DOUBLE_EQ(policy.shrink_margin(0.1), 0.1);

  // A pathological draw spike saturates at the hard cap.
  fb.drain_fraction = 10.0;
  for (int i = 0; i < 50; ++i) {
    policy.observe_batch(fb);
  }
  EXPECT_DOUBLE_EQ(policy.shrink_margin(0.0), policy.config().max_margin);

  policy.reset();
  EXPECT_DOUBLE_EQ(policy.drain_ewma(), 0.0);
  EXPECT_DOUBLE_EQ(policy.shrink_margin(0.0), 0.0);

  // Decisions remain pure ladder lookups.
  GovernorObservation obs;
  obs.battery_fraction = 0.5;
  EXPECT_EQ(policy.decide(obs), paper_governor().level_position(0.5));
}

// Identically-seeded RL policies make identical greedy decisions over an
// identical observation stream, and repeated decide() calls inside one
// decision epoch return the cached choice.
TEST(RlGovernorPolicy, DecisionsAreDeterministicUnderFixedSeed) {
  RlGovernorConfig config;
  config.seed = 21;
  RlGovernorPolicy a(paper_governor(), config);
  RlGovernorPolicy b(paper_governor(), config);

  double fraction = 1.0;
  for (int step = 0; step < 40; ++step) {
    GovernorObservation obs;
    obs.now_ms = 100.0 * step;
    obs.battery_fraction = fraction;
    obs.queue_depth = step % 7;
    obs.deadline_pressure = (step % 5) / 4.0;
    const std::int64_t pos = a.decide(obs);
    EXPECT_EQ(pos, b.decide(obs)) << "step " << step;
    EXPECT_GE(pos, 0);
    EXPECT_LT(pos, a.num_levels());
    // Same epoch -> cached choice, even if the observation moved.
    GovernorObservation moved = obs;
    moved.queue_depth += 3;
    EXPECT_EQ(a.decide(moved), pos);

    BatchOutcome fb;
    fb.level_pos = pos;
    fb.batch_size = 2;
    fb.misses = step % 3 == 0 ? 1 : 0;
    fb.drain_fraction = 0.005;
    fraction -= 0.005;
    fb.battery_fraction = fraction;
    a.observe_batch(fb);
    b.observe_batch(fb);
  }
  EXPECT_EQ(a.decisions_this_episode(), 40);
  EXPECT_DOUBLE_EQ(a.miss_ewma(), b.miss_ewma());
}

// RL switches fire exactly at the boundary they were decided at: no
// threshold-crossing lag is attributed inside the drain.
TEST(RlGovernorPolicy, ReportsNoDrainLag) {
  RlGovernorPolicy policy(paper_governor());
  EXPECT_LT(policy.drain_lag_ms(0, 0.7, 0.6, 100.0), 0.0);
  // The ladder default DOES interpolate on the same crossing.
  LadderPolicy ladder(paper_governor());
  EXPECT_GT(ladder.drain_lag_ms(0, 0.7, 0.6, 100.0), 0.0);
}

TEST(GovernorReward, MoreMissesNeverIncreaseReward) {
  const GovernorRewardConfig config;
  ServerStats stats;
  stats.submitted = 100;
  stats.completed = 90;
  stats.dropped = 10;
  stats.sim_end_ms = 60'000.0;
  double prev = std::numeric_limits<double>::infinity();
  for (std::int64_t misses = 0; misses <= 90; ++misses) {
    stats.deadline_misses = misses;
    const double reward = governor_reward(config, stats);
    EXPECT_LE(reward, prev) << misses << " misses";
    prev = reward;
  }
  // Serving more of the submitted load is always at least as good...
  ServerStats more = stats;
  more.deadline_misses = 5;
  stats.deadline_misses = 5;
  more.completed = 95;
  more.dropped = 5;
  EXPECT_GT(governor_reward(config, more), governor_reward(config, stats));
  // ...and dying earlier is always worse.
  ServerStats died = stats;
  died.sim_end_ms = 30'000.0;
  EXPECT_LT(governor_reward(config, died), governor_reward(config, stats));
}

TEST(RlGovernorPolicy, TrainSerializeReloadRoundTrip) {
  GovernorTrainConfig tcfg;
  tcfg.episodes = 4;
  tcfg.traffic.rate_rps = 3.0;
  tcfg.traffic.duration_ms = 10'000.0;
  tcfg.reward.reference_lifetime_ms = tcfg.traffic.duration_ms;
  const GovernorTrainResult result = train_governor(tcfg);
  ASSERT_EQ(result.rewards.size(), 4u);
  ASSERT_EQ(result.advantages.size(), 4u);
  ASSERT_EQ(result.miss_rates.size(), 4u);
  ASSERT_NE(result.policy, nullptr);
  EXPECT_GT(result.policy->decisions_this_episode(), -1);  // reset() ran

  // Training is bit-deterministic from the config's seeds.
  const GovernorTrainResult repeat = train_governor(tcfg);
  EXPECT_EQ(result.policy->serialize(), repeat.policy->serialize());
  for (std::size_t e = 0; e < result.rewards.size(); ++e) {
    EXPECT_DOUBLE_EQ(result.rewards[e], repeat.rewards[e]);
  }

  // serialize -> parse -> serialize is byte-identical.
  const std::string text = result.policy->serialize();
  const std::shared_ptr<RlGovernorPolicy> reloaded =
      RlGovernorPolicy::parse(text, paper_governor());
  EXPECT_EQ(reloaded->serialize(), text);

  // The reloaded policy serves bit-identically to the trained original.
  TrafficConfig tc;
  tc.scenario = TrafficScenario::kBurst;
  tc.duration_ms = 20'000.0;
  const std::vector<Request> schedule = generate_traffic(tc);
  ServeSessionConfig original_cfg;
  original_cfg.governor_policy = result.policy;
  ServeSessionConfig reloaded_cfg;
  reloaded_cfg.governor_policy = reloaded;
  ServeSession original(original_cfg);
  ServeSession from_disk(reloaded_cfg);
  EXPECT_EQ(original.server().serve(schedule).to_json(),
            from_disk.server().serve(schedule).to_json());
}

TEST(RlGovernorPolicy, ParseRejectsCorruptArtifacts) {
  RlGovernorPolicy policy(paper_governor());
  const std::string text = policy.serialize();
  EXPECT_THROW(RlGovernorPolicy::parse("bogus\n", paper_governor()),
               CheckError);
  // A ladder with a different rung count must be rejected.
  EXPECT_THROW(
      RlGovernorPolicy::parse(text, Governor::equal_tranches({5, 3, 2, 1})),
      CheckError);

  // Malformed tokens surface as a CheckError naming the field and the
  // token, never as std::stoll/std::stod's own exceptions, and non-finite
  // weights are refused.
  const auto expect_rejected = [&](const std::string& from,
                                   const std::string& to,
                                   const std::string& expected) {
    std::string corrupt = text;
    const std::size_t at = corrupt.find(from);
    ASSERT_NE(at, std::string::npos) << from;
    corrupt.replace(at, from.size(), to);
    try {
      RlGovernorPolicy::parse(corrupt, paper_governor());
      FAIL() << "expected CheckError for " << to;
    } catch (const CheckError& e) {
      EXPECT_NE(std::string(e.what()).find(expected), std::string::npos)
          << e.what();
    }
  };
  expect_rejected("hidden_dim 16", "hidden_dim abc",
                  "hidden_dim: bad integer 'abc'");
  expect_rejected("params 11", "params 99999999999999999999",
                  "params: bad integer '99999999999999999999'");
  expect_rejected("queue_depth_scale 16", "queue_depth_scale 1e999",
                  "queue_depth_scale: bad number '1e999'");
  const std::string first_weight = "numel=64\n";
  expect_rejected(first_weight, first_weight + "nan ",
                  "param gru.wz.weight: non-finite value 'nan'");
  expect_rejected(first_weight, first_weight + "1e39 ",
                  "param gru.wz.weight: value '1e39' overflows float");
  // Nothing may follow the last counted param.
  expect_rejected(text, text + "param name=extra numel=1\n0\n",
                  "rt3-governor: unexpected 'param' after the last field");
}

// A seeded observation stream with the edges a serving loop produces:
// empty queues, a flat battery, and saturated deadline pressure.
GovernorObservation random_observation(Rng& rng, int step) {
  GovernorObservation obs;
  obs.now_ms = 10.0 * step;
  obs.battery_fraction = step % 11 == 0 ? 0.0 : rng.uniform();
  obs.queue_depth = step % 5 == 0 ? 0 : rng.uniform_int(40);
  obs.deadline_pressure = step % 7 == 0 ? 1.0 : rng.uniform();
  return obs;
}

BatchOutcome random_feedback(Rng& rng, std::int64_t pos) {
  BatchOutcome fb;
  fb.level_pos = pos;
  fb.batch_size = 1 + rng.uniform_int(4);
  fb.misses = rng.uniform_int(fb.batch_size + 1);
  return fb;
}

// Drives `policy`'s greedy decide over 2500 seeded observations and checks
// every choice against a reference network on the tape that shares the
// policy's live weights: GruCell::forward -> Linear::forward ->
// log_softmax_lastdim -> strict-> argmax.  Returns the choice histogram.
std::vector<std::int64_t> expect_greedy_matches_tape(RlGovernorPolicy& policy,
                                                     std::uint64_t seed) {
  const std::int64_t hidden = policy.config().hidden_dim;
  Rng init(0);
  GruCell gru(RlGovernorPolicy::kObsDim, hidden, init);
  Linear head(hidden, policy.num_levels(), init);
  std::vector<NamedParam> ref = gru.named_parameters("gru.");
  head.collect_params("head.", ref);
  const std::vector<NamedParam> live = policy.named_parameters();
  EXPECT_EQ(ref.size(), live.size());
  for (std::size_t i = 0; i < std::min(ref.size(), live.size()); ++i) {
    EXPECT_EQ(ref[i].name, live[i].name);
    ref[i].param.mutable_value() = live[i].param.value();
  }

  std::vector<std::int64_t> histogram(
      static_cast<std::size_t>(policy.num_levels()), 0);
  Rng rng(seed);
  Var h = gru.initial_state(1);
  for (int step = 0; step < 2500; ++step) {
    const GovernorObservation obs = random_observation(rng, step);
    const double queue =
        std::min(1.0, static_cast<double>(obs.queue_depth) /
                          policy.config().queue_depth_scale);
    const Tensor x({1, RlGovernorPolicy::kObsDim},
                   {static_cast<float>(obs.battery_fraction),
                    static_cast<float>(queue),
                    static_cast<float>(obs.deadline_pressure),
                    static_cast<float>(policy.miss_ewma())});
    h = Var(gru.forward(Var(x), h).value());
    const Var logp = log_softmax_lastdim(head.forward(h));
    std::int64_t expected = 0;
    for (std::int64_t i = 1; i < logp.numel(); ++i) {
      if (logp.value()[i] > logp.value()[expected]) {
        expected = i;
      }
    }
    const std::int64_t pos = policy.decide(obs);
    EXPECT_EQ(pos, expected) << "step " << step;
    ++histogram[static_cast<std::size_t>(pos)];
    policy.observe_batch(random_feedback(rng, pos));
  }
  return histogram;
}

TEST(RlGovernorPolicy, GreedyDecideMatchesTapedReference) {
  RlGovernorPolicy untrained(paper_governor());
  expect_greedy_matches_tape(untrained, 3);

  // After training, update() has rewritten the weights; the greedy step
  // must read them live (no stale snapshot).
  GovernorTrainConfig tcfg;
  tcfg.episodes = 3;
  tcfg.traffic.rate_rps = 3.0;
  tcfg.traffic.duration_ms = 10'000.0;
  tcfg.reward.reference_lifetime_ms = tcfg.traffic.duration_ms;
  const GovernorTrainResult trained = train_governor(tcfg);
  EXPECT_NE(trained.policy->serialize(), untrained.serialize());
  const std::vector<std::int64_t> histogram =
      expect_greedy_matches_tape(*trained.policy, 4);
  // The stream reaches more than one level, so the comparison is not
  // trivially a constant.
  EXPECT_GT(std::count_if(histogram.begin(), histogram.end(),
                          [](std::int64_t n) { return n > 0; }),
            1);
}

TEST(RlGovernorPolicy, GreedyDecideDoesNotAllocate) {
  RlGovernorPolicy policy(paper_governor());
  Rng rng(5);
  std::vector<GovernorObservation> observations;
  std::vector<BatchOutcome> feedback;
  for (int step = 0; step < 1000; ++step) {
    observations.push_back(random_observation(rng, step));
    feedback.push_back(random_feedback(rng, step % policy.num_levels()));
  }
  const std::int64_t before = g_heap_allocs.load();
  for (std::size_t i = 0; i < observations.size(); ++i) {
    policy.decide(observations[i]);
    policy.observe_batch(feedback[i]);
  }
  EXPECT_EQ(g_heap_allocs.load() - before, 0);

  // The counter does see allocations: a sampled (training) decision
  // builds its graph on the heap.
  policy.set_sample_rng(&rng);
  const std::int64_t sampled_before = g_heap_allocs.load();
  policy.decide(observations[0]);
  EXPECT_GT(g_heap_allocs.load() - sampled_before, 0);
}

TEST(ServeSession, GovernorKindPlumbing) {
  EXPECT_EQ(governor_kind_from_name("ladder"), GovernorKind::kLadder);
  EXPECT_EQ(governor_kind_from_name("adaptive"), GovernorKind::kAdaptive);
  EXPECT_EQ(governor_kind_from_name("rl"), GovernorKind::kRl);
  EXPECT_THROW(governor_kind_from_name("ondemand"), CheckError);
  EXPECT_EQ(governor_kind_name(GovernorKind::kAdaptive), "adaptive");

  // The rl kind has no weights to invent: it requires a trained policy.
  ServeSessionConfig config;
  config.governor = GovernorKind::kRl;
  EXPECT_THROW(ServeSession session(config), CheckError);

  // An adaptive session runs end-to-end (and differs from ladder only
  // through the margin, so with margin 0 and light drain it still serves).
  ServeSessionConfig adaptive;
  adaptive.governor = GovernorKind::kAdaptive;
  TrafficConfig tc;
  tc.duration_ms = 10'000.0;
  const std::vector<Request> schedule = generate_traffic(tc);
  ServeSession session(adaptive);
  const ServerStats stats = session.server().serve(schedule);
  EXPECT_EQ(stats.completed + stats.dropped, stats.submitted);
}

}  // namespace
}  // namespace rt3
