// perfbench's own tests: the decorators are pure forwarding (stats stay
// byte-identical under every governor family), span self time is a span
// minus its children, and the percentile helper only reports tails with
// at least ten samples beyond them.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/check.hpp"
#include "decorators.hpp"
#include "report.hpp"
#include "rl/governor.hpp"
#include "serve/session.hpp"
#include "serve/traffic.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

std::vector<double> ramp(std::size_t n) {
  std::vector<double> xs;
  for (std::size_t i = 1; i <= n; ++i) {
    xs.push_back(static_cast<double>(i));
  }
  return xs;
}

TEST(Percentile, TailNeedsTenSamplesBeyond) {
  EXPECT_FALSE(tail_percentile(ramp(999), 99.0).has_value());
  ASSERT_TRUE(tail_percentile(ramp(1000), 99.0).has_value());
  EXPECT_EQ(*tail_percentile(ramp(1000), 99.0), 990.0);
  EXPECT_FALSE(tail_percentile(ramp(199), 95.0).has_value());
  EXPECT_EQ(*tail_percentile(ramp(200), 95.0), 190.0);
  EXPECT_FALSE(tail_percentile({}, 90.0).has_value());
}

TEST(Percentile, HighestTailAndMedian) {
  const std::optional<Tail> t = highest_tail(ramp(500));
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->p, 98.0);
  EXPECT_EQ(t->value, 490.0);
  EXPECT_FALSE(highest_tail(ramp(39)).has_value());
  EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
}

TEST(BestPerInput, FastestRepeatOfEachInput) {
  const std::vector<double> best =
      best_per_input({0, 1, 0, 1, 2}, {5.0, 7.0, 3.0, 9.0, 4.0}, 3);
  EXPECT_EQ(best, (std::vector<double>{3.0, 7.0, 4.0}));
  EXPECT_DOUBLE_EQ(mean(best), 14.0 / 3.0);
  EXPECT_THROW(best_per_input({0, 0}, {1.0, 2.0}, 2), rt3::CheckError);
}

TEST(Spans, SelfTimeIsSpanMinusChildren) {
  SpanRecorder spans;
  spans.open_root(SpanKind::kServe, 7, 0.0);
  spans.record(SpanKind::kDecide, 1.0, 3.0);
  spans.record(SpanKind::kRunBatch, 4.0, 5.0);
  EXPECT_DOUBLE_EQ(spans.close_root(10.0), 7.0);
  EXPECT_DOUBLE_EQ(spans.total_ms(SpanKind::kServe), 10.0);
  EXPECT_DOUBLE_EQ(spans.self_ms(SpanKind::kServe), 7.0);
  EXPECT_EQ(spans.count(SpanKind::kDecide), 1);
  ASSERT_EQ(spans.kept(), 3U);
  EXPECT_NE(spans.to_chrome_json().find("\"parent\": 0"), std::string::npos);
}

rt3::TrafficConfig lowbatt_burst(std::uint64_t seed) {
  rt3::TrafficConfig t;
  t.scenario = rt3::TrafficScenario::kBurst;
  t.rate_rps = 3.0;
  t.duration_ms = 60'000.0;
  t.deadline_slack_ms = 1'000.0;
  t.tight_fraction = 0.3;
  t.tight_slack_ms = 350.0;
  t.seed = seed;
  return t;
}

std::shared_ptr<rt3::GovernorPolicy> make_policy(rt3::GovernorKind kind) {
  rt3::Governor ladder =
      rt3::Governor::equal_tranches(rt3::paper_serve_ladder());
  switch (kind) {
    case rt3::GovernorKind::kLadder:
      return std::make_shared<rt3::LadderPolicy>(std::move(ladder));
    case rt3::GovernorKind::kAdaptive:
      return std::make_shared<rt3::AdaptiveMarginPolicy>(std::move(ladder));
    case rt3::GovernorKind::kRl:
      break;
  }
  rt3::RlGovernorConfig cfg;
  cfg.seed = derive_seed(5, 1);
  return std::make_shared<rt3::RlGovernorPolicy>(std::move(ladder), cfg);
}

void wrap(rt3::Server& server, SpanRecorder* spans) {
  server.adopt_backend(
      std::make_unique<TracedBackend>(server.exec_backend(), spans));
}

class DecoratorPurity : public ::testing::TestWithParam<rt3::GovernorKind> {};

TEST_P(DecoratorPurity, ServeSessionStatsByteIdentical) {
  const std::vector<rt3::Request> schedule =
      rt3::generate_traffic(lowbatt_burst(derive_seed(5, 2)));
  const std::shared_ptr<rt3::GovernorPolicy> inner = make_policy(GetParam());
  rt3::ServeSessionConfig cfg;
  cfg.battery_capacity_mj = 7'000.0;
  cfg.governor_margin = 0.05;
  cfg.governor_policy = inner;
  rt3::ServeSession plain(cfg);
  const std::string expected = plain.server().serve(schedule).to_json();

  SpanRecorder spans;
  auto traced = std::make_shared<TracedPolicy>(inner, &spans);
  cfg.governor_policy = traced;
  rt3::ServeSession decorated(cfg);
  wrap(decorated.server(), &spans);
  EXPECT_EQ(decorated.server().serve(schedule).to_json(), expected);
  EXPECT_GT(traced->decides(), 0);
  EXPECT_GT(spans.count(SpanKind::kDecide), 0);
  EXPECT_GT(spans.count(SpanKind::kRunBatch), 0);
  EXPECT_GT(spans.count(SpanKind::kActivateLevel), 0);
  // Recording off: still pure forwarding.
  traced->set_spans(nullptr);
  EXPECT_EQ(decorated.server().serve(schedule).to_json(), expected);
}

TEST_P(DecoratorPurity, NodeSessionStatsByteIdentical) {
  rt3::TrafficConfig t = lowbatt_burst(derive_seed(5, 3));
  t.num_models = 3;
  t.priority_classes = 3;
  const std::vector<rt3::Request> schedule = rt3::generate_traffic(t);
  const std::shared_ptr<rt3::GovernorPolicy> inner = make_policy(GetParam());
  rt3::ServeSessionConfig cfg;
  cfg.battery_capacity_mj = 9'000.0;
  cfg.scheduler.policy = rt3::SchedulingPolicy::kEdfPriority;
  cfg.governor_margin = 0.05;
  cfg.shed_expired = true;
  cfg.admit_feasible = true;
  cfg.governor_policy = inner;
  rt3::NodeSession plain(cfg, 3);
  const std::string expected = plain.node().serve(schedule).to_json();

  SpanRecorder spans;
  cfg.governor_policy = std::make_shared<TracedPolicy>(inner, &spans);
  rt3::NodeSession decorated(cfg, 3);
  for (const std::int64_t id : decorated.node().registry().ids()) {
    wrap(decorated.node().model(id), &spans);
  }
  EXPECT_EQ(decorated.node().serve(schedule).to_json(), expected);
  EXPECT_GT(spans.count(SpanKind::kRunBatch), 0);
}

INSTANTIATE_TEST_SUITE_P(Governors, DecoratorPurity,
                         ::testing::Values(rt3::GovernorKind::kLadder,
                                           rt3::GovernorKind::kAdaptive,
                                           rt3::GovernorKind::kRl));

TEST(Seeds, StreamsDiffer) {
  EXPECT_NE(derive_seed(1, 0), derive_seed(1, 1));
  EXPECT_NE(derive_seed(1, 0), derive_seed(2, 0));
  EXPECT_EQ(derive_seed(3, 4), derive_seed(3, 4));
}

}  // namespace
