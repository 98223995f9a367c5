// Multi-model ServeNode front-end: deployment ownership, model-id
// routing, feasibility-based admission, per-model -> node stats
// aggregation, and the shared-governor drain-then-switch across every
// resident model.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "common/check.hpp"
#include "exec/analytic_backend.hpp"
#include "nn/linear.hpp"
#include "obs/slo.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"
#include "pruning/model_pruner.hpp"
#include "pruning/pattern_prune.hpp"
#include "rl/governor.hpp"
#include "runtime/engine.hpp"
#include "serve/node.hpp"
#include "serve/server.hpp"
#include "serve/session.hpp"
#include "serve/traffic.hpp"

namespace rt3 {
namespace {

Request make_request(std::int64_t id, double arrival_ms, double deadline_ms,
                     std::int64_t model_id = 0) {
  Request r;
  r.id = id;
  r.arrival_ms = arrival_ms;
  r.deadline_ms = deadline_ms;
  r.model_id = model_id;
  return r;
}

/// An integer arg of a trace event (CheckError when absent).
std::int64_t int_arg(const TraceEvent& e, const std::string& key) {
  for (const auto& [k, v] : e.args) {
    if (k == key) {
      return std::stoll(v);
    }
  }
  throw CheckError("trace event " + e.name + " has no arg " + key);
}

/// A minimal analytic deployment over the paper ladder (no engine).
ModelDeployment paper_deployment(ServerConfig cfg) {
  const LatencyModel latency = paper_transformer_latency();
  ModelDeployment dep;
  dep.config(cfg)
      .spec(ModelSpec::paper_transformer())
      .latency(latency)
      .sparsities(paper_ladder_sparsities(latency, 115.0));
  return dep;
}

/// Batteries for the single-model grid: one dies mid-session, one
/// outlasts the schedule.
constexpr double kDyingBatteryMj = 8'000.0;
constexpr double kFullBatteryMj = 50'000.0;

ServerConfig paper_server_config(double capacity_mj, BatchPolicy batch) {
  ServerConfig cfg;
  cfg.battery_capacity_mj = capacity_mj;
  cfg.batch = batch;
  return cfg;
}

std::vector<Request> generate_node_traffic(std::int64_t num_models,
                                           double rate_rps,
                                           double duration_ms = 60'000.0) {
  TrafficConfig tcfg;
  tcfg.scenario = TrafficScenario::kBurst;
  tcfg.duration_ms = duration_ms;
  tcfg.rate_rps = rate_rps;
  tcfg.deadline_slack_ms = 1'000.0;
  tcfg.tight_fraction = 0.3;
  tcfg.tight_slack_ms = 350.0;
  tcfg.num_models = num_models;
  return generate_traffic(tcfg);
}

TEST(ModelDeployment, BuildRequiresSparsities) {
  ModelDeployment dep;
  EXPECT_THROW(std::move(dep).build(
                   VfTable::odroid_xu3_a7(),
                   Governor::equal_tranches(paper_serve_ladder()),
                   PowerModel()),
               CheckError);
}

TEST(ModelRegistry, RejectsDuplicateIdsAndFindsShards) {
  ModelRegistry registry;
  registry.add(
      1, std::move(paper_deployment(paper_server_config(1e4, {2, 20.0})))
             .build(VfTable::odroid_xu3_a7(),
                    Governor::equal_tranches(paper_serve_ladder()),
                    PowerModel()));
  EXPECT_NE(registry.find(1), nullptr);
  EXPECT_EQ(registry.find(2), nullptr);
  EXPECT_THROW(
      registry.add(
          1, std::move(paper_deployment(paper_server_config(1e4, {2, 20.0})))
                 .build(VfTable::odroid_xu3_a7(),
                        Governor::equal_tranches(paper_serve_ladder()),
                        PowerModel())),
      CheckError);
}

// A node with ONE registered model must reproduce a standalone Server
// exactly — both run the one serving loop, so the facade adds routing,
// not behaviour.  Compared over the full stats, telemetry and SLO dumps
// across every loop feature the single-model path can exercise.
using SingleModelGrid =
    std::tuple<SchedulingPolicy, bool, bool, bool, GovernorKind, double>;

class SingleModelNode : public ::testing::TestWithParam<SingleModelGrid> {};

TEST_P(SingleModelNode, MatchesServerBitwise) {
  const auto [policy, shed, admit, software_reconfig, governor, battery_mj] =
      GetParam();
  ServeSessionConfig config;
  config.battery_capacity_mj = battery_mj;
  config.batch = BatchPolicy{4, 30.0};
  config.scheduler.policy = policy;
  config.shed_expired = shed;
  config.admit_feasible = admit;
  config.software_reconfig = software_reconfig;
  config.governor_margin = 0.05;
  config.governor = governor;
  if (governor == GovernorKind::kRl) {
    // Untrained but seeded: decisions are deterministic, and serve()
    // resets its episode state, so both sessions may share it.
    config.governor_policy = std::make_shared<RlGovernorPolicy>(
        Governor::equal_tranches(paper_serve_ladder()));
  }
  ServeSession single(config);
  NodeSession node_session(config, 1);

  TrafficConfig tcfg;
  tcfg.scenario = TrafficScenario::kBurst;
  tcfg.duration_ms = 60'000.0;
  tcfg.rate_rps = 6.0;
  tcfg.deadline_slack_ms = 1'000.0;
  tcfg.tight_fraction = 0.3;
  tcfg.tight_slack_ms = 200.0;
  tcfg.priority_classes = 2;
  const std::vector<Request> schedule = generate_traffic(tcfg);

  TelemetrySampler server_telemetry;
  SloMonitor server_slo(SloMonitor::default_rules());
  single.server().set_telemetry(&server_telemetry);
  single.server().set_slo(&server_slo);
  const ServerStats server_stats = single.server().serve(schedule);

  TelemetrySampler node_telemetry;
  SloMonitor node_slo(SloMonitor::default_rules());
  node_session.node().set_telemetry(&node_telemetry);
  node_session.node().set_slo(&node_slo);
  const NodeStats node_stats = node_session.node().serve(schedule);

  EXPECT_EQ(server_stats.to_json(), node_stats.model(0).to_json());
  EXPECT_EQ(server_telemetry.to_json(), node_telemetry.to_json());
  EXPECT_EQ(server_slo.to_json(), node_slo.to_json());
  // The battery axis must mean what it says.
  EXPECT_EQ(server_stats.dropped > 0, battery_mj < kFullBatteryMj);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, SingleModelNode,
    ::testing::Combine(
        ::testing::Values(SchedulingPolicy::kFifo, SchedulingPolicy::kEdf,
                          SchedulingPolicy::kEdfPriority),
        ::testing::Bool(), ::testing::Bool(), ::testing::Bool(),
        ::testing::Values(GovernorKind::kLadder, GovernorKind::kAdaptive,
                          GovernorKind::kRl),
        ::testing::Values(kDyingBatteryMj, kFullBatteryMj)));

// Per-model stats must sum exactly to the node totals, and every
// submitted request must be accounted somewhere.
TEST(ServeNode, PerModelStatsSumToNodeTotals) {
  ServeSessionConfig config;
  config.shed_expired = true;
  config.admit_feasible = true;
  NodeSession session(config, 3);
  const std::vector<Request> schedule = generate_node_traffic(3, 6.0);
  const NodeStats stats = session.node().serve(schedule);

  std::int64_t submitted = 0, completed = 0, dropped = 0, shed = 0,
               rejected = 0, batches = 0, switches = 0, misses = 0;
  double energy = 0.0;
  for (const auto& [id, s] : stats.per_model) {
    submitted += s.submitted;
    completed += s.completed;
    dropped += s.dropped;
    shed += s.shed;
    rejected += s.rejected;
    batches += s.batches;
    switches += s.switches;
    misses += s.deadline_misses;
    energy += s.energy_used_mj;
    // Per-model conservation: everything submitted to a shard is served,
    // dropped, shed, or rejected.
    EXPECT_EQ(s.completed + s.dropped + s.shed + s.rejected, s.submitted);
  }
  EXPECT_EQ(stats.submitted, submitted + stats.unroutable);
  EXPECT_EQ(stats.completed, completed);
  EXPECT_EQ(stats.dropped, dropped);
  EXPECT_EQ(stats.shed, shed);
  EXPECT_EQ(stats.rejected, rejected);
  EXPECT_EQ(stats.batches, batches);
  EXPECT_EQ(stats.switches, switches);
  EXPECT_EQ(stats.deadline_misses, misses);
  EXPECT_DOUBLE_EQ(stats.energy_used_mj, energy);
  EXPECT_EQ(stats.submitted, static_cast<std::int64_t>(schedule.size()));
  EXPECT_EQ(stats.unroutable, 0);
}

// Energy conservation: every successful drain is booked to one model, so
// on a surviving battery the per-model energies sum to what the battery
// lost; a battery that died can only have booked less than its capacity.
// The loop checks the same relation at the end of every session.
TEST(ServeNode, PerModelEnergySumsToBatteryDrain) {
  for (SchedulingPolicy policy :
       {SchedulingPolicy::kFifo, SchedulingPolicy::kEdf,
        SchedulingPolicy::kEdfPriority}) {
    for (double capacity_mj : {60'000.0, 1'500.0}) {
      ServeSessionConfig config;
      config.battery_capacity_mj = capacity_mj;
      config.scheduler.policy = policy;
      config.shed_expired = true;
      config.admit_feasible = true;
      NodeSession session(config, 3);
      const std::vector<Request> schedule = generate_node_traffic(3, 6.0);
      const NodeStats stats = session.node().serve(schedule);
      const Battery& battery = session.node().battery();
      double energy_mj = 0.0;
      std::int64_t switches = 0;
      for (const auto& [id, s] : stats.per_model) {
        energy_mj += s.energy_used_mj;
        switches += s.switches;
      }
      const std::string where = std::string(scheduling_policy_name(policy)) +
                                " capacity " + std::to_string(capacity_mj);
      EXPECT_GT(switches, 0) << where;  // switch energy is in the sum too
      if (capacity_mj > 10'000.0) {
        ASSERT_FALSE(battery.empty()) << where;
        EXPECT_EQ(stats.dropped, 0) << where;
        EXPECT_NEAR(energy_mj, battery.capacity_mj() - battery.remaining_mj(),
                    1e-9 * capacity_mj)
            << where;
      } else {
        ASSERT_TRUE(battery.empty()) << where;
        EXPECT_GT(stats.dropped, 0) << where;
        EXPECT_LE(energy_mj, battery.capacity_mj()) << where;
        EXPECT_GT(energy_mj, 0.9 * battery.capacity_mj()) << where;
      }
    }
  }
}

// Feasibility admission must reject EXACTLY the requests whose deadline
// lies inside now + batch_latency(1, level) at ingress — no more, no
// less — and attribute them to their target model.
TEST(ServeNode, AdmissionRejectsExactlyTheInfeasibleSet) {
  NodeConfig ncfg;
  ncfg.battery_capacity_mj = 1e9;  // never dies
  ServeNode node(ncfg, VfTable::odroid_xu3_a7(),
                 Governor::equal_tranches(paper_serve_ladder()),
                 PowerModel());
  ServerConfig cfg = paper_server_config(1e9, BatchPolicy{1, 0.0});
  cfg.admit_feasible = true;
  node.add_model(0, paper_deployment(cfg));
  node.add_model(1, paper_deployment(cfg));
  const double lat1 = node.model(0).batch_latency_ms(1, 0);

  const std::vector<Request> schedule = {
      make_request(0, 0.0, 1e12, 0),        // feasible
      make_request(1, 0.0, lat1 * 0.5, 0),  // INFEASIBLE at ingress
      make_request(2, 0.0, lat1, 1),        // boundary: exactly feasible
      make_request(3, 0.0, lat1 * 0.9, 1),  // INFEASIBLE at ingress
      make_request(4, 0.0, 1e12, 1),        // feasible
  };
  const NodeStats stats = node.serve(schedule);

  EXPECT_EQ(stats.model(0).rejected, 1);
  EXPECT_EQ(stats.model(1).rejected, 1);
  EXPECT_EQ(stats.model(0).completed, 1);
  EXPECT_EQ(stats.model(1).completed, 2);
  EXPECT_EQ(stats.rejected, 2);
  EXPECT_EQ(stats.completed + stats.rejected, stats.submitted);
  // The boundary request (deadline == now + lat1) was ADMITTED — the
  // feasibility test is >= — but then queued behind model 0's batch and
  // missed: ingress admission is a necessary-condition filter, not a
  // completion guarantee.
  EXPECT_EQ(stats.model(1).deadline_misses, 1);

  // The same schedule with admission off: nothing rejected, the
  // infeasible requests occupy batch slots and miss instead.
  ServeNode no_admit(ncfg, VfTable::odroid_xu3_a7(),
                     Governor::equal_tranches(paper_serve_ladder()),
                     PowerModel());
  ServerConfig cfg_off = cfg;
  cfg_off.admit_feasible = false;
  no_admit.add_model(0, paper_deployment(cfg_off));
  no_admit.add_model(1, paper_deployment(cfg_off));
  const NodeStats off = no_admit.serve(schedule);
  EXPECT_EQ(off.rejected, 0);
  EXPECT_EQ(off.completed, off.submitted);
  EXPECT_GE(off.deadline_misses, 2);  // the two infeasible ones now miss
}

// Requests targeting an unregistered model are counted, not crashed on.
TEST(ServeNode, UnroutableRequestsAreCounted) {
  NodeConfig ncfg;
  ServeNode node(ncfg, VfTable::odroid_xu3_a7(),
                 Governor::equal_tranches(paper_serve_ladder()),
                 PowerModel());
  node.add_model(7, paper_deployment(paper_server_config(1e9, {2, 10.0})));
  const std::vector<Request> schedule = {
      make_request(0, 0.0, 1e12, 7),
      make_request(1, 1.0, 1e12, 99),  // no such model
      make_request(2, 2.0, 1e12, 7),
  };
  const NodeStats stats = node.serve(schedule);
  EXPECT_EQ(stats.unroutable, 1);
  EXPECT_EQ(stats.completed, 2);
  EXPECT_EQ(stats.submitted, 3);
  EXPECT_TRUE(stats.has_model(7));
  EXPECT_FALSE(stats.has_model(99));
}

/// Runs `serve` and returns the CheckError message ("" when none).
template <typename Serve>
std::string check_error_of(Serve&& serve) {
  try {
    serve();
  } catch (const CheckError& e) {
    return e.what();
  }
  return "";
}

// The loop reads the schedule in arrival order, so an out-of-order
// request would be served from before it was visible (latency counted
// from its stale arrival) and a non-finite timestamp would wedge the
// clock.  Both are rejected at entry, naming the request, on the
// standalone Server and on a node alike.
TEST(ServeLoop, RejectsUnsortedOrNonFiniteSchedules) {
  ServerConfig cfg = paper_server_config(1e9, BatchPolicy{1, 0.0});
  cfg.admit_feasible = true;
  std::unique_ptr<Server> server =
      std::move(paper_deployment(cfg))
          .build(VfTable::odroid_xu3_a7(),
                 Governor::equal_tranches(paper_serve_ladder()),
                 PowerModel());
  ServeNode node(NodeConfig{}, VfTable::odroid_xu3_a7(),
                 Governor::equal_tranches(paper_serve_ladder()),
                 PowerModel());
  node.add_model(0, paper_deployment(cfg));

  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<std::vector<Request>> bad = {
      // Request 11 arrives before request 10 (which admission rejects).
      {make_request(10, 100.0, 101.0), make_request(11, 50.0, 5'000.0)},
      {make_request(10, 0.0, 1e12), make_request(11, std::nan(""), 1e12)},
      {make_request(10, 0.0, 1e12), make_request(11, 1.0, inf)},
  };
  for (const std::vector<Request>& schedule : bad) {
    EXPECT_NE(check_error_of([&] { server->serve(schedule); })
                  .find("request 11"),
              std::string::npos);
    EXPECT_NE(check_error_of([&] { node.serve(schedule); }).find("request 11"),
              std::string::npos);
  }
}

// A negative priority class has no per-class stats slot.  It is rejected
// at entry, naming the request, before any batch drains the battery.
TEST(ServeLoop, RejectsNegativePriorityAtEntry) {
  std::unique_ptr<Server> server =
      std::move(paper_deployment(paper_server_config(1e9, {2, 10.0})))
          .build(VfTable::odroid_xu3_a7(),
                 Governor::equal_tranches(paper_serve_ladder()),
                 PowerModel());
  std::vector<Request> schedule = {make_request(0, 0.0, 1e12),
                                   make_request(7, 1.0, 1e12)};
  schedule[1].priority = -1;
  EXPECT_NE(check_error_of([&] { server->serve(schedule); })
                .find("request 7 has a negative priority class"),
            std::string::npos);
  schedule[1].priority = 0;
  EXPECT_EQ(server->serve(schedule).completed, 2);
}

// A standalone Server is model 0; a request for any other model would be
// routed nowhere, so it is an error rather than silently served.
TEST(ServeLoop, ServerRejectsRequestsForOtherModels) {
  std::unique_ptr<Server> server =
      std::move(paper_deployment(paper_server_config(1e9, {2, 10.0})))
          .build(VfTable::odroid_xu3_a7(),
                 Governor::equal_tranches(paper_serve_ladder()),
                 PowerModel());
  const std::vector<Request> schedule = {make_request(0, 0.0, 1e12, 0),
                                         make_request(1, 1.0, 1e12, 3)};
  EXPECT_NE(check_error_of([&] { server->serve(schedule); })
                .find("request 1 targets model 3"),
            std::string::npos);
  EXPECT_EQ(server->serve({make_request(0, 0.0, 1e12, 0)}).completed, 1);
}

// One battery step-down must drain-then-switch EVERY resident model at
// the same boundary: equal switch counts everywhere, every engine on the
// final ladder level, and all levels actually serving per model.
TEST(ServeNode, SharedGovernorSwitchDrainsAllShards) {
  ServeSessionConfig config;
  config.battery_capacity_mj = 18'000.0;
  config.batch = BatchPolicy{4, 30.0};
  NodeSession session(config, 3);
  const std::vector<Request> schedule = generate_node_traffic(3, 5.0);
  TraceRecorder trace(/*record_wall=*/false);
  session.node().set_trace(&trace);
  const NodeStats stats = session.node().serve(schedule);
  // Every batch a shard runs shows up as a batch span on its lane (model
  // id + 1), in virtual-time order with a monotone non-decreasing level.
  std::vector<std::int64_t> observed_batches(3, 0);
  std::vector<std::int64_t> last_level(3, 0);
  for (const TraceEvent& e : trace.merged()) {
    if (e.name != "batch") {
      continue;
    }
    ASSERT_GE(e.tid, 1);
    ASSERT_LE(e.tid, 3);
    const auto m = static_cast<std::size_t>(e.tid - 1);
    EXPECT_GT(e.dur_ms, 0.0);  // start < end
    EXPECT_GE(int_arg(e, "size"), 1);
    const std::int64_t pos = int_arg(e, "level");
    EXPECT_GE(pos, last_level[m]);
    last_level[m] = pos;
    ++observed_batches[m];
  }
  for (std::int64_t m = 0; m < 3; ++m) {
    EXPECT_EQ(observed_batches[static_cast<std::size_t>(m)],
              stats.model(m).batches);
  }

  // Two step-downs on the {l6, l4, l3} ladder with this battery.
  ASSERT_EQ(stats.per_model.size(), 3U);
  for (const auto& [id, s] : stats.per_model) {
    EXPECT_EQ(s.switches, 2) << "model " << id;
    ASSERT_EQ(s.runs_per_level.size(), 3U);
    for (double runs : s.runs_per_level) {
      EXPECT_GT(runs, 0.0) << "model " << id;
    }
    EXPECT_EQ(s.completed, s.submitted) << "model " << id;
  }
  EXPECT_EQ(stats.switches, 6);
  EXPECT_EQ(stats.dropped, 0);
  // Every resident engine ended on the slowest level — no shard was left
  // behind on a sub-model the final V/F level cannot afford.
  for (std::int64_t m = 0; m < 3; ++m) {
    ReconfigEngine* engine = session.node().model(m).reconfig_engine();
    ASSERT_NE(engine, nullptr);
    EXPECT_EQ(engine->current_level(), 2) << "model " << m;
  }
}

// Multi-model traffic: the single-model path is bitwise-stable, the
// multi-model merge is deterministic, sorted, and respects weights.
TEST(Traffic, MultiModelMixIsDeterministicAndWeighted) {
  TrafficConfig base;
  base.scenario = TrafficScenario::kBurst;
  base.duration_ms = 60'000.0;
  base.rate_rps = 20.0;

  // num_models = 1 must not perturb the historical stream.
  const std::vector<Request> single = generate_traffic(base);
  TrafficConfig one = base;
  one.num_models = 1;
  const std::vector<Request> still_single = generate_traffic(one);
  ASSERT_EQ(single.size(), still_single.size());
  for (std::size_t i = 0; i < single.size(); ++i) {
    EXPECT_DOUBLE_EQ(single[i].arrival_ms, still_single[i].arrival_ms);
    EXPECT_DOUBLE_EQ(single[i].deadline_ms, still_single[i].deadline_ms);
    EXPECT_EQ(still_single[i].model_id, 0);
  }

  TrafficConfig multi = base;
  multi.num_models = 3;
  const std::vector<Request> a = generate_traffic(multi);
  const std::vector<Request> b = generate_traffic(multi);
  ASSERT_FALSE(a.empty());
  ASSERT_EQ(a.size(), b.size());
  std::vector<std::int64_t> per_model(3, 0);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i].arrival_ms, b[i].arrival_ms);
    EXPECT_EQ(a[i].model_id, b[i].model_id);
    EXPECT_EQ(a[i].id, static_cast<std::int64_t>(i));
    ASSERT_GE(a[i].model_id, 0);
    ASSERT_LT(a[i].model_id, 3);
    ++per_model[static_cast<std::size_t>(a[i].model_id)];
    if (i > 0) {
      EXPECT_GE(a[i].arrival_ms, a[i - 1].arrival_ms);
    }
  }
  // Uniform weights: each model carries roughly a third of the load.
  for (const std::int64_t count : per_model) {
    EXPECT_GT(count, static_cast<std::int64_t>(a.size()) / 6);
  }

  // A 10:1:1 weighting skews the mix decisively toward model 0.
  TrafficConfig weighted = multi;
  weighted.model_weights = {10.0, 1.0, 1.0};
  std::vector<std::int64_t> skewed(3, 0);
  for (const Request& r : generate_traffic(weighted)) {
    ++skewed[static_cast<std::size_t>(r.model_id)];
  }
  EXPECT_GT(skewed[0], 3 * skewed[1]);
  EXPECT_GT(skewed[0], 3 * skewed[2]);
}

}  // namespace
}  // namespace rt3
