// Deterministic (simulated-clock) tests for the serving subsystem:
// batch formation, traffic generation, deadline accounting, and
// drain-then-switch correctness across battery-driven level changes.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "common/check.hpp"
#include "common/stats.hpp"
#include "nn/linear.hpp"
#include "obs/trace.hpp"
#include "pruning/model_pruner.hpp"
#include "pruning/pattern_prune.hpp"
#include "runtime/engine.hpp"
#include "serve/batcher.hpp"
#include "serve/server.hpp"
#include "serve/session.hpp"
#include "serve/traffic.hpp"

namespace rt3 {
namespace {

Request make_request(std::int64_t id, double arrival_ms,
                     double deadline_ms = 1e12) {
  Request r;
  r.id = id;
  r.arrival_ms = arrival_ms;
  r.deadline_ms = deadline_ms;
  return r;
}

/// Server over the paper's {l6, l4, l3} ladder with per-level sparsities
/// tuned to just meet T = 115 ms, exactly like the simulate CLI path.
/// An integer arg of a trace event (CheckError when absent).
std::int64_t int_arg(const TraceEvent& e, const std::string& key) {
  for (const auto& [k, v] : e.args) {
    if (k == key) {
      return std::stoll(v);
    }
  }
  throw CheckError("trace event " + e.name + " has no arg " + key);
}

Server make_paper_server(double capacity_mj, BatchPolicy policy) {
  const LatencyModel latency = paper_calibrated_latency();
  ServerConfig cfg;
  cfg.battery_capacity_mj = capacity_mj;
  cfg.batch = policy;
  return Server(cfg, VfTable::odroid_xu3_a7(),
                Governor::equal_tranches(paper_serve_ladder()), PowerModel(),
                latency, ModelSpec::paper_transformer(),
                paper_ladder_sparsities(latency, 115.0));
}

TEST(Percentile, LinearInterpolation) {
  std::vector<double> xs;
  for (int i = 1; i <= 100; ++i) {
    xs.push_back(static_cast<double>(i));
  }
  EXPECT_DOUBLE_EQ(percentile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 100.0), 100.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 50.0), 50.5);
  EXPECT_DOUBLE_EQ(percentile({}, 50.0), 0.0);
  EXPECT_DOUBLE_EQ(percentile({7.0}, 99.0), 7.0);
  EXPECT_THROW(percentile(xs, 101.0), CheckError);
}

TEST(Batcher, EmptyIsNeverReady) {
  Batcher batcher(BatchPolicy{4, 25.0});
  EXPECT_FALSE(batcher.ready(1e9));
  EXPECT_TRUE(std::isinf(batcher.release_at_ms()));
}

TEST(Batcher, MaxWaitReleasesPartialBatch) {
  Batcher batcher(BatchPolicy{4, 25.0});
  batcher.push(make_request(0, 0.0));
  batcher.push(make_request(1, 5.0));
  batcher.push(make_request(2, 10.0));
  EXPECT_DOUBLE_EQ(batcher.release_at_ms(), 25.0);  // oldest + max_wait
  EXPECT_FALSE(batcher.ready(24.9));
  EXPECT_TRUE(batcher.ready(25.0));
  const auto batch = batcher.pop_batch(25.0);
  ASSERT_EQ(batch.size(), 3U);
  EXPECT_EQ(batch[0].id, 0);  // FIFO
  EXPECT_EQ(batch[2].id, 2);
  EXPECT_EQ(batcher.pending(), 0);
}

TEST(Batcher, MaxSizeReleasesImmediately) {
  Batcher batcher(BatchPolicy{4, 1e9});  // wait never triggers
  for (std::int64_t i = 0; i < 6; ++i) {
    batcher.push(make_request(i, static_cast<double>(i)));
  }
  EXPECT_TRUE(batcher.ready(5.0));  // size trigger, no waiting
  const auto batch = batcher.pop_batch(5.0);
  ASSERT_EQ(batch.size(), 4U);  // capped at max_batch_size
  EXPECT_EQ(batch[0].id, 0);
  EXPECT_EQ(batcher.pending(), 2);
}

TEST(Batcher, RejectsOutOfOrderAndEarlyPop) {
  Batcher batcher(BatchPolicy{4, 25.0});
  batcher.push(make_request(0, 10.0));
  EXPECT_THROW(batcher.push(make_request(1, 5.0)), CheckError);
  EXPECT_THROW(batcher.pop_batch(10.0), CheckError);  // not ready yet
  const auto forced = batcher.pop_batch(10.0, /*force=*/true);
  EXPECT_EQ(forced.size(), 1U);
}

TEST(Traffic, DeterministicSortedAndDeadlineTagged) {
  TrafficConfig cfg;
  cfg.scenario = TrafficScenario::kBurst;
  cfg.duration_ms = 20'000.0;
  cfg.rate_rps = 30.0;
  cfg.deadline_slack_ms = 200.0;
  const auto a = generate_traffic(cfg);
  const auto b = generate_traffic(cfg);
  ASSERT_FALSE(a.empty());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i].arrival_ms, b[i].arrival_ms);
    EXPECT_EQ(a[i].id, static_cast<std::int64_t>(i));
    EXPECT_DOUBLE_EQ(a[i].deadline_ms, a[i].arrival_ms + 200.0);
    if (i > 0) {
      EXPECT_GE(a[i].arrival_ms, a[i - 1].arrival_ms);
    }
    EXPECT_LT(a[i].arrival_ms, cfg.duration_ms);
  }
}

TEST(Traffic, ScenariosShareTheMeanRate) {
  // rate_rps is normalized to the session mean in every scenario, so the
  // request counts must agree within Poisson noise.
  TrafficConfig cfg;
  cfg.duration_ms = 60'000.0;
  cfg.rate_rps = 20.0;
  const double expected = cfg.rate_rps * cfg.duration_ms / 1000.0;
  for (TrafficScenario s : {TrafficScenario::kSteady, TrafficScenario::kBurst,
                            TrafficScenario::kDiurnal}) {
    cfg.scenario = s;
    const double n = static_cast<double>(generate_traffic(cfg).size());
    EXPECT_NEAR(n, expected, 5.0 * std::sqrt(expected))
        << traffic_scenario_name(s);
  }
}

TEST(Traffic, BurstIsBurstier) {
  TrafficConfig cfg;
  cfg.duration_ms = 60'000.0;
  cfg.rate_rps = 20.0;
  const auto count_in = [](const std::vector<Request>& reqs, double lo,
                           double hi) {
    std::int64_t n = 0;
    for (const auto& r : reqs) {
      n += (r.arrival_ms >= lo && r.arrival_ms < hi) ? 1 : 0;
    }
    return n;
  };
  cfg.scenario = TrafficScenario::kBurst;
  const auto burst = generate_traffic(cfg);
  // First on-period (0-2 s) vs first off-period (2-5 s): the on rate is
  // 40x the off rate, so even with Poisson noise the on window dominates.
  EXPECT_GT(count_in(burst, 0.0, 2'000.0),
            2 * count_in(burst, 2'000.0, 5'000.0));
  cfg.scenario = TrafficScenario::kDiurnal;
  const auto diurnal = generate_traffic(cfg);
  // Mid-session peak beats the trough at the start.
  EXPECT_GT(count_in(diurnal, 25'000.0, 35'000.0),
            2 * count_in(diurnal, 0.0, 10'000.0));
}

TEST(Traffic, NamesRoundTrip) {
  for (TrafficScenario s : {TrafficScenario::kSteady, TrafficScenario::kBurst,
                            TrafficScenario::kDiurnal}) {
    EXPECT_EQ(traffic_scenario_from_name(traffic_scenario_name(s)), s);
  }
  EXPECT_THROW(traffic_scenario_from_name("tsunami"), CheckError);
}

TEST(Batcher, ShedExpiredDropsOnlyBlownDeadlines) {
  Batcher batcher(BatchPolicy{8, 1e9});
  batcher.push(make_request(0, 0.0, 50.0));
  batcher.push(make_request(1, 0.0, 500.0));
  batcher.push(make_request(2, 5.0, 60.0));
  const auto shed = batcher.shed_expired(60.0);  // deadlines 50 and 60 blown
  ASSERT_EQ(shed.size(), 2U);
  EXPECT_EQ(shed[0].id, 0);
  EXPECT_EQ(shed[1].id, 2);
  EXPECT_EQ(batcher.pending(), 1);
  EXPECT_TRUE(batcher.shed_expired(60.0).empty());  // idempotent
}

TEST(Server, ShedsHopelessRequestsBeforeTheyOccupyASlot) {
  const LatencyModel latency = paper_calibrated_latency();
  ServerConfig cfg;
  cfg.battery_capacity_mj = 1e9;
  cfg.batch = BatchPolicy{1, 0.0};  // immediate single-request batches
  cfg.shed_expired = true;
  Server server(cfg, VfTable::odroid_xu3_a7(),
                Governor::equal_tranches(paper_serve_ladder()), PowerModel(),
                latency, ModelSpec::paper_transformer(),
                paper_ladder_sparsities(latency, 115.0));
  const double lat = server.batch_latency_ms(1, 0);
  // Request 1's deadline passes while request 0 executes: without
  // shedding it would occupy a batch slot only to miss; with shedding it
  // is dropped before launch and counted as shed.
  const ServerStats stats = server.serve({
      make_request(0, 0.0, 1e12),
      make_request(1, 0.0, lat * 0.5),
      make_request(2, 0.0, 1e12),
  });
  EXPECT_EQ(stats.completed, 2);
  EXPECT_EQ(stats.shed, 1);
  EXPECT_EQ(stats.deadline_misses, 0);
  EXPECT_EQ(stats.completed + stats.shed, stats.submitted);
}

TEST(Server, SheddingKeepsAccountingExactUnderOverload) {
  const LatencyModel latency = paper_calibrated_latency();
  ServerConfig cfg;
  cfg.battery_capacity_mj = 4'000.0;  // dies mid-session
  cfg.batch = BatchPolicy{2, 20.0};
  cfg.shed_expired = true;
  Server server(cfg, VfTable::odroid_xu3_a7(),
                Governor::equal_tranches(paper_serve_ladder()), PowerModel(),
                latency, ModelSpec::paper_transformer(),
                paper_ladder_sparsities(latency, 115.0));
  TrafficConfig tcfg;
  tcfg.scenario = TrafficScenario::kBurst;
  tcfg.duration_ms = 60'000.0;
  tcfg.rate_rps = 12.0;  // heavy overload: shedding must engage
  tcfg.deadline_slack_ms = 200.0;
  const ServerStats stats = server.serve(generate_traffic(tcfg));
  EXPECT_GT(stats.shed, 0);
  EXPECT_EQ(stats.completed + stats.dropped + stats.shed, stats.submitted);
  // Shed requests never execute, so they are not deadline misses.
  EXPECT_LE(stats.deadline_misses, stats.completed);
}

TEST(Server, DeadlineMissAccountingIsExact) {
  Server server = make_paper_server(1e9, BatchPolicy{2, 10.0});
  const double lat = server.batch_latency_ms(2, 0);
  // Both arrive at t=0 -> batch of 2 released immediately, ends at `lat`.
  const std::vector<Request> schedule = {
      make_request(0, 0.0, lat - 1.0),  // misses by 1 ms
      make_request(1, 0.0, lat + 1.0),  // meets with 1 ms to spare
  };
  const ServerStats stats = server.serve(schedule);
  EXPECT_EQ(stats.completed, 2);
  EXPECT_EQ(stats.batches, 1);
  EXPECT_EQ(stats.deadline_misses, 1);
  ASSERT_EQ(stats.latency_ms.size(), 2U);
  EXPECT_NEAR(stats.latency_ms[0], lat, 1e-9);
  EXPECT_NEAR(stats.latency_ms[1], lat, 1e-9);
}

TEST(Server, MaxWaitDelayCountsTowardLatency) {
  Server server = make_paper_server(1e9, BatchPolicy{8, 40.0});
  const double lat1 = server.batch_latency_ms(1, 0);
  const ServerStats stats = server.serve({make_request(0, 0.0)});
  // A lone request sits out the full max-wait before its batch launches.
  ASSERT_EQ(stats.latency_ms.size(), 1U);
  EXPECT_NEAR(stats.latency_ms[0], 40.0 + lat1, 1e-9);
  EXPECT_NEAR(stats.sim_end_ms, 40.0 + lat1, 1e-9);
}

TEST(Server, BatchingAmortizesFixedCost) {
  Server server = make_paper_server(1e9, BatchPolicy{8, 25.0});
  const double lat1 = server.batch_latency_ms(1, 0);
  const double lat8 = server.batch_latency_ms(8, 0);
  EXPECT_LT(lat8, 8.0 * lat1);  // strictly better than 8 singles
  EXPECT_GT(lat8, 7.0 * lat1);  // but MAC work still scales with size
}

TEST(Server, DrainThenSwitchLosesNoRequests) {
  // Battery sized so the governor steps down twice while traffic is live.
  Server server = make_paper_server(18'000.0, BatchPolicy{4, 30.0});
  TrafficConfig tcfg;
  tcfg.scenario = TrafficScenario::kSteady;
  tcfg.duration_ms = 60'000.0;
  tcfg.rate_rps = 5.0;
  tcfg.deadline_slack_ms = 300.0;
  const auto schedule = generate_traffic(tcfg);

  TraceRecorder trace(/*record_wall=*/false);
  server.set_trace(&trace);
  const ServerStats stats = server.serve(schedule);

  // The trace's request spans name every executed request; its batch
  // spans, in virtual-time order, carry each batch's level position.
  std::multiset<std::int64_t> executed;
  std::vector<std::int64_t> level_trace;
  for (const TraceEvent& e : trace.merged()) {
    if (e.name == "request") {
      executed.insert(e.id);
    } else if (e.name == "batch") {
      EXPECT_GT(e.dur_ms, 0.0);  // start < end
      level_trace.push_back(int_arg(e, "level"));
    }
  }
  EXPECT_GE(stats.switches, 2);
  EXPECT_EQ(stats.dropped, 0);
  EXPECT_EQ(stats.completed, stats.submitted);
  // Every request executed exactly once: nothing lost, nothing duplicated.
  EXPECT_EQ(executed.size(), static_cast<std::size_t>(stats.submitted));
  for (const auto& r : schedule) {
    EXPECT_EQ(executed.count(r.id), 1U) << "request " << r.id;
  }
  // The governor only ever steps DOWN as the battery drains, and switches
  // happen strictly between batches, so the level trace is monotone.
  for (std::size_t i = 1; i < level_trace.size(); ++i) {
    EXPECT_LE(level_trace[i - 1], level_trace[i]);
  }
  // All three levels actually served traffic.
  for (double runs : stats.runs_per_level) {
    EXPECT_GT(runs, 0.0);
  }
}

TEST(Server, BatteryDeathAccountsEveryRequest) {
  Server server = make_paper_server(1'500.0, BatchPolicy{4, 30.0});
  TrafficConfig tcfg;
  tcfg.duration_ms = 60'000.0;
  tcfg.rate_rps = 5.0;
  const auto schedule = generate_traffic(tcfg);
  const ServerStats stats = server.serve(schedule);
  EXPECT_GT(stats.dropped, 0);  // battery dies mid-session
  EXPECT_GT(stats.completed, 0);
  EXPECT_EQ(stats.completed + stats.dropped, stats.submitted);
  EXPECT_TRUE(server.battery().empty());
}

TEST(Server, ServeIsDeterministic) {
  Server server = make_paper_server(18'000.0, BatchPolicy{4, 30.0});
  TrafficConfig tcfg;
  tcfg.scenario = TrafficScenario::kDiurnal;
  tcfg.duration_ms = 30'000.0;
  tcfg.rate_rps = 8.0;
  const auto schedule = generate_traffic(tcfg);
  const ServerStats a = server.serve(schedule);
  const ServerStats b = server.serve(schedule);  // serve() recharges
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.batches, b.batches);
  EXPECT_EQ(a.switches, b.switches);
  EXPECT_EQ(a.deadline_misses, b.deadline_misses);
  EXPECT_DOUBLE_EQ(a.sim_end_ms, b.sim_end_ms);
  EXPECT_DOUBLE_EQ(a.energy_used_mj, b.energy_used_mj);
}

TEST(Server, LiveEngineSwitchesPatternSetsUnderTraffic) {
  // Real masks: a ReconfigEngine over actual Linear layers, one pattern
  // set per governor level, sparsest set at the slowest level.  The
  // engine is handed over via adopt_engine (the owned-deployment path).
  Rng rng(11);
  std::vector<std::unique_ptr<Linear>> owned;
  std::vector<Linear*> layers;
  for (int i = 0; i < 2; ++i) {
    owned.push_back(std::make_unique<Linear>(16, 16, rng));
    layers.push_back(owned.back().get());
  }
  ModelPruner pruner(layers);
  BpConfig bp;
  bp.num_blocks = 4;
  bp.prune_fraction = 0.25;
  pruner.apply_bp(bp);
  std::vector<PatternSet> sets;
  sets.push_back(random_pattern_set(4, 0.25, 2, rng));
  sets.push_back(random_pattern_set(4, 0.5, 2, rng));
  sets.push_back(random_pattern_set(4, 0.75, 2, rng));

  Server server = make_paper_server(18'000.0, BatchPolicy{4, 30.0});
  server.adopt_engine(std::make_unique<ReconfigEngine>(
      pruner, sets, SwitchCostModel(), ModelSpec::paper_transformer(), 100));
  const ReconfigEngine& engine = *server.reconfig_engine();
  TrafficConfig tcfg;
  tcfg.duration_ms = 60'000.0;
  tcfg.rate_rps = 5.0;
  const ServerStats stats = server.serve(generate_traffic(tcfg));
  EXPECT_GE(stats.switches, 2);
  EXPECT_GT(stats.switch_ms_total, 0.0);  // engine-modeled, not the default
  EXPECT_EQ(engine.current_level(), 2);   // ended on the slowest level
  EXPECT_EQ(stats.dropped, 0);
  EXPECT_EQ(stats.completed, stats.submitted);
}

TEST(Server, HardwareOnlyBaselinePaysNoSwitchCost) {
  const VfTable table = VfTable::odroid_xu3_a7();
  const ModelSpec spec = ModelSpec::paper_transformer();
  const LatencyModel latency = paper_calibrated_latency();
  ServerConfig cfg;
  cfg.battery_capacity_mj = 18'000.0;
  cfg.batch = BatchPolicy{4, 30.0};
  cfg.software_reconfig = false;
  cfg.exec_mode = ExecMode::kBlock;
  Server server(cfg, table, Governor::equal_tranches({5, 3, 2}), PowerModel(),
                latency, spec, {0.6426, 0.6426, 0.6426});
  TrafficConfig tcfg;
  tcfg.duration_ms = 60'000.0;
  tcfg.rate_rps = 5.0;
  tcfg.deadline_slack_ms = 160.0;
  const ServerStats stats = server.serve(generate_traffic(tcfg));
  EXPECT_EQ(stats.switches, 0);
  EXPECT_DOUBLE_EQ(stats.switch_ms_total, 0.0);
  // The fixed sub-model breaks the deadline at the slower levels (the
  // paper's E2 pathology).
  EXPECT_GT(stats.miss_rate(), 0.1);
}

}  // namespace
}  // namespace rt3
