// Serving-under-traffic bench, three grids over identical battery/ladder:
//
//   1. scenario x policy (fifo, edf, edf-prio) — single-model Server, the
//      PR-3 cells, bitwise-stable so bench_compare.py can gate CI on them;
//   2. scenario x models (m2, m3) — multi-model ServeNode: N resident
//      models behind ONE battery/governor, requests routed by model id;
//   3. burst overload: edf+shedding vs edf+shedding+feasibility admission
//      — admission rejects requests no immediate solo launch could serve,
//      so the SERVED miss rate drops below shedding alone.
//   4. discharge x governor (ladder, adaptive, rl) — the GovernorPolicy
//      seam: identical traffic under the static threshold ladder, the
//      self-sizing-margin controller, and the learned RL governor (trained
//      in-bench from fixed seeds, so the cells stay bit-deterministic).
//      The lowbatt row shrinks the battery so surviving the session
//      actually requires stepping down.
//
// Emits a human table on stdout and machine-readable BENCH_serve.json
// ({scenarios|node_scenarios|overload|governor_scenarios ->
// {row -> {col -> stats}}}) so
// later PRs have a perf trajectory to compare against — and so
// tools/bench_compare.py can gate CI on deadline-miss-rate / p99
// regressions vs bench/baselines/ across all three grids.
//
//   bench_serve_traffic [OUT.json] [REPEATS] [SEED]
//   bench_serve_traffic [--out=OUT.json] [--repeats=N] [--seed=S]
//
// Positional and --flag=value forms are interchangeable but not mixable
// (the parser is common/args.hpp, shared with the rt3 CLI; mixing would
// bind a positional to the wrong knob, so it exits 2 instead).  REPEATS
// (default 1) re-runs
// every cell with seeds SEED..SEED+R-1; the gate fields (miss_rate,
// p99_ms) are means over repeats.  The virtual clock makes every repeat
// bit-deterministic from its seed.
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "common/args.hpp"
#include "common/check.hpp"
#include "common/table.hpp"
#include "common/wall_time.hpp"
#include "obs/slo.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"
#include "rl/governor.hpp"
#include "serve/node.hpp"
#include "serve/policy.hpp"
#include "serve/server.hpp"
#include "serve/session.hpp"
#include "serve/traffic.hpp"

namespace {

using namespace rt3;

/// Gate fields of one bench cell plus the first repeat's full stats JSON.
struct Cell {
  std::string first_json;  // full stats of the first repeat (seed = SEED)
  double mean_miss_rate = 0.0;
  double mean_p99_ms = 0.0;
  double mean_switch_lag_p99_ms = 0.0;
  // Human-table columns from the first repeat (works for ServerStats and
  // NodeStats alike — one shared capture instead of per-runner copies).
  std::string requests, served, batches, thrpt, switches, misses_qse;

  template <typename Stats>
  void capture_first(const Stats& stats) {
    first_json = stats.to_json();
    requests = std::to_string(stats.submitted);
    served = std::to_string(stats.completed);
    batches = std::to_string(stats.batches);
    thrpt = fmt_f(stats.throughput_rps(), 2);
    switches = std::to_string(stats.switches);
    misses_qse = std::to_string(stats.miss_queued) + "/" +
                 std::to_string(stats.miss_switch) + "/" +
                 std::to_string(stats.miss_exec);
  }

  std::string to_json() const {
    return "{\"miss_rate\": " + std::to_string(mean_miss_rate) +
           ", \"p99_ms\": " + std::to_string(mean_p99_ms) +
           ", \"switch_lag_p99_ms\": " +
           std::to_string(mean_switch_lag_p99_ms) +
           ",\n        \"stats\": " + first_json + "}";
  }
};

/// The obs-layer invariant every cell must satisfy: each deadline miss is
/// classified into exactly one cause (checked on EVERY repeat, for
/// ServerStats and NodeStats alike).
template <typename Stats>
void check_miss_attribution(const Stats& stats) {
  check(stats.miss_queued + stats.miss_switch + stats.miss_exec ==
            stats.deadline_misses,
        "bench: miss_queued + miss_switch + miss_exec != deadline_misses");
}

/// The workload every grid shares: mixed interactive/background deadlines
/// (30% tight 350 ms, the rest 1 s), mean 3 req/s over 60 s.  With one
/// uniform slack, deadline order degenerates to arrival order and every
/// policy coincides with FIFO.
TrafficConfig base_traffic(TrafficScenario scenario, std::uint64_t seed) {
  TrafficConfig tcfg;
  tcfg.scenario = scenario;
  tcfg.rate_rps = 3.0;
  tcfg.duration_ms = 60'000.0;
  tcfg.deadline_slack_ms = 1'000.0;
  tcfg.tight_fraction = 0.3;
  tcfg.tight_slack_ms = 350.0;
  tcfg.seed = seed;
  return tcfg;
}

Cell run_policy_cell(TrafficScenario scenario, SchedulingPolicy policy,
                     std::int64_t repeats, std::uint64_t seed) {
  Cell cell;
  for (std::int64_t rep = 0; rep < repeats; ++rep) {
    ServeSessionConfig scfg;  // defaults: 12 kmJ battery, T=115, batch<=2
    scfg.scheduler.policy = policy;
    if (policy == SchedulingPolicy::kEdfPriority) {
      // The priority column doubles as the governor-aware-batching cell.
      scfg.governor_margin = 0.05;
    }
    TrafficConfig tcfg =
        base_traffic(scenario, seed + static_cast<std::uint64_t>(rep));
    if (policy == SchedulingPolicy::kEdfPriority) {
      tcfg.priority_classes = 3;
    }
    const std::vector<Request> schedule = generate_traffic(tcfg);
    ServeSession session(scfg);
    const ServerStats stats = session.server().serve(schedule);
    check_miss_attribution(stats);
    if (rep == 0) {
      cell.capture_first(stats);
    }
    cell.mean_miss_rate += stats.miss_rate();
    cell.mean_p99_ms += stats.latency_percentile(99.0);
    cell.mean_switch_lag_p99_ms += stats.switch_lag_percentile(99.0);
  }
  const double r = static_cast<double>(repeats);
  cell.mean_miss_rate /= r;
  cell.mean_p99_ms /= r;
  cell.mean_switch_lag_p99_ms /= r;
  return cell;
}

Cell run_node_cell(TrafficScenario scenario, std::int64_t models,
                   std::int64_t repeats, std::uint64_t seed) {
  Cell cell;
  for (std::int64_t rep = 0; rep < repeats; ++rep) {
    ServeSessionConfig per_model;  // same defaults as the policy grid
    TrafficConfig tcfg =
        base_traffic(scenario, seed + static_cast<std::uint64_t>(rep));
    tcfg.num_models = models;
    const std::vector<Request> schedule = generate_traffic(tcfg);
    NodeSession session(per_model, models);
    const NodeStats stats = session.node().serve(schedule);
    check_miss_attribution(stats);
    for (const auto& [model_id, model_stats] : stats.per_model) {
      (void)model_id;
      check_miss_attribution(model_stats);  // per shard too, not just sums
    }
    if (rep == 0) {
      cell.capture_first(stats);
    }
    cell.mean_miss_rate += stats.miss_rate();
    cell.mean_p99_ms += stats.latency_percentile(99.0);
    cell.mean_switch_lag_p99_ms += stats.switch_lag_percentile(99.0);
  }
  const double r = static_cast<double>(repeats);
  cell.mean_miss_rate /= r;
  cell.mean_p99_ms /= r;
  cell.mean_switch_lag_p99_ms /= r;
  return cell;
}

/// Burst at 2x the base rate: sustained overload where plain EDF dominoes.
/// The interactive slack tightens to 250 ms so that a tight request
/// admitted after one full batch of queueing is already infeasible —
/// exactly the request EDF would launch first (earliest deadline), miss,
/// and blow feasible deadlines behind (the domino admission removes).
Cell run_overload_cell(bool admit, std::int64_t repeats, std::uint64_t seed) {
  Cell cell;
  for (std::int64_t rep = 0; rep < repeats; ++rep) {
    ServeSessionConfig scfg;
    scfg.scheduler.policy = SchedulingPolicy::kEdf;
    scfg.shed_expired = true;
    scfg.admit_feasible = admit;
    TrafficConfig tcfg = base_traffic(TrafficScenario::kBurst,
                                      seed + static_cast<std::uint64_t>(rep));
    tcfg.rate_rps = 6.0;
    tcfg.tight_slack_ms = 250.0;
    const std::vector<Request> schedule = generate_traffic(tcfg);
    ServeSession session(scfg);
    const ServerStats stats = session.server().serve(schedule);
    check_miss_attribution(stats);
    if (rep == 0) {
      cell.capture_first(stats);
    }
    cell.mean_miss_rate += stats.miss_rate();
    cell.mean_p99_ms += stats.latency_percentile(99.0);
    cell.mean_switch_lag_p99_ms += stats.switch_lag_percentile(99.0);
  }
  const double r = static_cast<double>(repeats);
  cell.mean_miss_rate /= r;
  cell.mean_p99_ms /= r;
  cell.mean_switch_lag_p99_ms /= r;
  return cell;
}

/// One governor-grid discharge: the bench traffic under a GovernorPolicy
/// family.  `rl_policy` is the in-bench-trained instance (shared across
/// cells; serve() clears its episode state, greedy decisions only) and is
/// ignored for the other kinds.
Cell run_governor_cell(TrafficScenario scenario, double capacity_mj,
                       GovernorKind kind,
                       const std::shared_ptr<GovernorPolicy>& rl_policy,
                       std::int64_t repeats, std::uint64_t seed) {
  Cell cell;
  for (std::int64_t rep = 0; rep < repeats; ++rep) {
    ServeSessionConfig scfg;  // defaults except battery + governor
    scfg.battery_capacity_mj = capacity_mj;
    scfg.governor = kind;
    if (kind == GovernorKind::kRl) {
      scfg.governor_policy = rl_policy;
    }
    TrafficConfig tcfg =
        base_traffic(scenario, seed + static_cast<std::uint64_t>(rep));
    const std::vector<Request> schedule = generate_traffic(tcfg);
    ServeSession session(scfg);
    const ServerStats stats = session.server().serve(schedule);
    check_miss_attribution(stats);
    if (rep == 0) {
      cell.capture_first(stats);
    }
    cell.mean_miss_rate += stats.miss_rate();
    cell.mean_p99_ms += stats.latency_percentile(99.0);
    cell.mean_switch_lag_p99_ms += stats.switch_lag_percentile(99.0);
  }
  const double r = static_cast<double>(repeats);
  cell.mean_miss_rate /= r;
  cell.mean_p99_ms /= r;
  cell.mean_switch_lag_p99_ms /= r;
  return cell;
}

/// Trains the RL governor for the governor grid, in-bench, from seeds
/// derived only from the bench seed — the trained weights (and therefore
/// every rl cell) are bit-deterministic per seed.  Episodes round-robin
/// the three scenarios over the SAME traffic shape the grid serves, half
/// at the grid's full battery and half at the lowbatt capacity so the
/// policy sees discharges where stepping down is the only way to survive.
std::shared_ptr<RlGovernorPolicy> train_bench_governor(
    std::uint64_t seed, double capacity_mj, double lowbatt_capacity_mj) {
  GovernorTrainConfig tcfg;
  tcfg.episodes = 12;
  tcfg.traffic = base_traffic(TrafficScenario::kSteady, seed);
  tcfg.traffic_seed = seed;
  tcfg.sample_seed = seed + 1234;
  tcfg.reward.reference_lifetime_ms = tcfg.traffic.duration_ms;
  tcfg.session.battery_capacity_mj = capacity_mj;
  const GovernorTrainResult full = train_governor(tcfg);
  // Continue training the SAME weights on the scarce-battery regime
  // (train_governor always builds a fresh policy, so this second phase
  // drives the policy's training API directly).
  Rng sample_rng(seed + 4321);
  ServeSessionConfig scfg = tcfg.session;
  scfg.battery_capacity_mj = lowbatt_capacity_mj;
  scfg.governor = GovernorKind::kRl;
  scfg.governor_policy = full.policy;
  ServeSession session(scfg);
  for (std::int64_t e = 0; e < tcfg.episodes; ++e) {
    TrafficConfig traffic = tcfg.traffic;
    traffic.scenario = tcfg.scenarios[static_cast<std::size_t>(e) %
                                      tcfg.scenarios.size()];
    traffic.seed = seed + 100 + static_cast<std::uint64_t>(e);
    const std::vector<Request> schedule = generate_traffic(traffic);
    full.policy->set_sample_rng(&sample_rng);
    const ServerStats stats = session.server().serve(schedule);
    const double reward = governor_reward(tcfg.reward, stats);
    if (full.policy->decisions_this_episode() > 0) {
      full.policy->update(reward);
    }
  }
  full.policy->set_sample_rng(nullptr);
  full.policy->reset();
  return full.policy;
}

/// The obs-layer overhead contract, proven per bench run: a traced session
/// over the identical schedule must leave every serving stat
/// BYTE-IDENTICAL (tracing is pure observation), and the wall-time cost of
/// tracing must stay small.  Wall times are host-dependent and purely
/// informational — the gate is the identity check, which aborts the bench
/// on violation.
struct ObsCell {
  std::int64_t trace_events = 0;
  std::int64_t telemetry_points = 0;
  std::int64_t slo_breaches = 0;
  double wall_off_ms = 0.0;
  double wall_on_ms = 0.0;
};

ObsCell run_observability_cell(std::uint64_t seed) {
  TrafficConfig tcfg = base_traffic(TrafficScenario::kBurst, seed);
  const std::vector<Request> schedule = generate_traffic(tcfg);
  ServeSessionConfig scfg;
  scfg.scheduler.policy = SchedulingPolicy::kEdf;
  ObsCell out;
  // Obs-off reference (single-threaded serve keeps the timing clean).
  ServeSession off(scfg);
  const auto t0 = wall_now();
  const ServerStats stats_off = off.server().serve(schedule);
  out.wall_off_ms = wall_ms_since(t0);
  // Full-observability run: trace + telemetry + SLO monitor all attached.
  // Virtual stamps only, so every artifact is deterministic too.
  ServeSession on(scfg);
  TraceRecorder trace(/*record_wall=*/false);
  TelemetrySampler telemetry{TelemetryConfig{}};
  SloMonitor slo(SloMonitor::default_rules());
  on.server().set_trace(&trace);
  on.server().set_telemetry(&telemetry);
  on.server().set_slo(&slo);
  const auto t1 = wall_now();
  const ServerStats stats_on = on.server().serve(schedule);
  out.wall_on_ms = wall_ms_since(t1);
  check(stats_off.to_json() == stats_on.to_json(),
        "bench: observability layer perturbed serving results");
  // Telemetry itself must be bit-deterministic: a repeat over the same
  // schedule yields a byte-identical JSON dump.
  ServeSession rep(scfg);
  TelemetrySampler telemetry2{TelemetryConfig{}};
  SloMonitor slo2(SloMonitor::default_rules());
  rep.server().set_telemetry(&telemetry2);
  rep.server().set_slo(&slo2);
  rep.server().serve(schedule);
  check(telemetry.to_json() == telemetry2.to_json(),
        "bench: telemetry dump not deterministic across repeats");
  check(slo.to_json() == slo2.to_json(),
        "bench: slo episodes not deterministic across repeats");
  out.trace_events = trace.num_events();
  out.telemetry_points = telemetry.num_points();
  out.slo_breaches = static_cast<std::int64_t>(slo.breaches());
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_serve.json";
  std::int64_t repeats = 1;
  std::int64_t seed_value = 7;
  try {
    const std::vector<std::string> args = split_flag_args(argc, argv);
    const std::vector<std::string> positionals = positional_args(args);
    // The two spellings are interchangeable, not mixable: a mixed
    // "--out report.json 5" would bind 5 to OUT and silently ignore it.
    if (!positionals.empty() &&
        (arg_present(args, "--out") || arg_present(args, "--repeats") ||
         arg_present(args, "--seed"))) {
      std::cerr << "bench_serve_traffic: use positional OR --flag form, "
                   "not both\n";
      return 2;
    }
    // Positional values run through the same whole-string parser as the
    // flags (arg_int), so trailing garbage ("3x") is rejected, not
    // silently truncated.
    if (!positionals.empty()) {
      out_path = positionals[0];
    }
    if (positionals.size() > 1) {
      repeats = arg_int({"--repeats", positionals[1]}, "--repeats", repeats);
    }
    if (positionals.size() > 2) {
      seed_value = arg_int({"--seed", positionals[2]}, "--seed", seed_value);
    }
    out_path = arg_string(args, "--out", out_path);
    repeats = arg_int(args, "--repeats", repeats);
    seed_value = arg_int(args, "--seed", seed_value);
  } catch (const std::exception& e) {
    std::cerr << "bench_serve_traffic: bad arguments: " << e.what() << "\n"
              << "usage: bench_serve_traffic [OUT.json] [REPEATS] [SEED]\n"
              << "       bench_serve_traffic [--out=F] [--repeats=N] "
                 "[--seed=S]\n";
    return 2;
  }
  if (repeats < 1) {
    std::cerr << "bench_serve_traffic: REPEATS must be >= 1\n";
    return 2;
  }
  if (seed_value < 0) {
    std::cerr << "bench_serve_traffic: SEED must be non-negative\n";
    return 2;
  }
  const auto seed = static_cast<std::uint64_t>(seed_value);

  std::cout << "\n=== serve: battery-aware serving under traffic ===\n"
            << "One battery discharge per cell; same ladder {l6,l4,l3},\n"
            << "same mean load, pattern-set switches between batches.\n"
            << repeats << " repeat(s), seed " << seed << ".  edf-prio runs "
            << "3 priority classes + governor-aware\nbatching (margin 5%); "
            << "mN rows run N models behind ONE battery;\noverload rows "
            << "run burst at 2x rate with edf + shedding,\nwith and "
            << "without feasibility admission; governor rows serve\n"
            << "identical traffic under ladder vs adaptive vs rl (trained\n"
            << "in-bench, fixed seeds; lowbatt = burst on a 7 kmJ battery)."
            << "\n\n";

  const std::vector<TrafficScenario> scenarios = {TrafficScenario::kSteady,
                                                  TrafficScenario::kBurst,
                                                  TrafficScenario::kDiurnal};
  TablePrinter t({"grid", "scenario", "cell", "requests", "served",
                  "batches", "thrpt (req/s)", "p99 (ms)", "miss rate",
                  "misses q/s/e", "switches"});
  std::string json = "{\n  \"seed\": " + std::to_string(seed) +
                     ",\n  \"repeats\": " + std::to_string(repeats) +
                     ",\n  \"scenarios\": {\n";

  // Grid 1: scenario x policy (the PR-3 cells, bitwise-stable).
  bool first_scenario = true;
  for (const TrafficScenario scenario : scenarios) {
    json += std::string(first_scenario ? "" : ",\n") + "    \"" +
            traffic_scenario_name(scenario) + "\": {\n";
    first_scenario = false;
    bool first_cell = true;
    for (const SchedulingPolicy policy :
         {SchedulingPolicy::kFifo, SchedulingPolicy::kEdf,
          SchedulingPolicy::kEdfPriority}) {
      const Cell cell = run_policy_cell(scenario, policy, repeats, seed);
      t.add_row({"policy", traffic_scenario_name(scenario),
                 scheduling_policy_name(policy), cell.requests, cell.served,
                 cell.batches, cell.thrpt, fmt_f(cell.mean_p99_ms, 1),
                 fmt_pct(cell.mean_miss_rate), cell.misses_qse,
                 cell.switches});
      json += std::string(first_cell ? "" : ",\n") + "      \"" +
              scheduling_policy_name(policy) + "\": " + cell.to_json();
      first_cell = false;
    }
    json += "\n    }";
  }
  json += "\n  },\n  \"node_scenarios\": {\n";

  // Grid 2: scenario x resident-model count on one ServeNode.
  first_scenario = true;
  for (const TrafficScenario scenario : scenarios) {
    json += std::string(first_scenario ? "" : ",\n") + "    \"" +
            traffic_scenario_name(scenario) + "\": {\n";
    first_scenario = false;
    bool first_cell = true;
    for (const std::int64_t models : {2, 3}) {
      const Cell cell = run_node_cell(scenario, models, repeats, seed);
      std::string label = "m";
      label += std::to_string(models);
      t.add_row({"node", traffic_scenario_name(scenario), label,
                 cell.requests, cell.served, cell.batches, cell.thrpt,
                 fmt_f(cell.mean_p99_ms, 1), fmt_pct(cell.mean_miss_rate),
                 cell.misses_qse, cell.switches});
      json += std::string(first_cell ? "" : ",\n") + "      \"" + label +
              "\": " + cell.to_json();
      first_cell = false;
    }
    json += "\n    }";
  }
  json += "\n  },\n  \"overload\": {\n    \"burst\": {\n";

  // Grid 3: feasibility admission vs shedding alone under overload.
  bool first_cell = true;
  for (const bool admit : {false, true}) {
    const Cell cell = run_overload_cell(admit, repeats, seed);
    const std::string label = admit ? "edf-admit" : "edf-shed";
    t.add_row({"overload", "burst", label, cell.requests, cell.served,
               cell.batches, cell.thrpt, fmt_f(cell.mean_p99_ms, 1),
               fmt_pct(cell.mean_miss_rate), cell.misses_qse,
               cell.switches});
    json += std::string(first_cell ? "" : ",\n") + "      \"" + label +
            "\": " + cell.to_json();
    first_cell = false;
  }
  json += "\n    }\n  },\n  \"governor_scenarios\": {\n";

  // Grid 4: discharge x governor family over the GovernorPolicy seam.
  // The rl column serves the in-bench-trained policy greedily; lowbatt
  // shrinks the battery so finishing the session requires stepping down.
  constexpr double kLowbattCapacityMj = 7'000.0;
  const std::shared_ptr<RlGovernorPolicy> rl_policy =
      train_bench_governor(seed, 12'000.0, kLowbattCapacityMj);
  struct GovernorRow {
    const char* label;
    TrafficScenario scenario;
    double capacity_mj;
  };
  const std::vector<GovernorRow> governor_rows = {
      {"steady", TrafficScenario::kSteady, 12'000.0},
      {"burst", TrafficScenario::kBurst, 12'000.0},
      {"diurnal", TrafficScenario::kDiurnal, 12'000.0},
      {"lowbatt", TrafficScenario::kBurst, kLowbattCapacityMj},
  };
  bool first_row = true;
  for (const GovernorRow& row : governor_rows) {
    json += std::string(first_row ? "" : ",\n") + "    \"" + row.label +
            "\": {\n";
    first_row = false;
    bool first_gov = true;
    for (const GovernorKind kind :
         {GovernorKind::kLadder, GovernorKind::kAdaptive, GovernorKind::kRl}) {
      const Cell cell = run_governor_cell(row.scenario, row.capacity_mj,
                                          kind, rl_policy, repeats, seed);
      t.add_row({"governor", row.label, governor_kind_name(kind),
                 cell.requests, cell.served, cell.batches, cell.thrpt,
                 fmt_f(cell.mean_p99_ms, 1), fmt_pct(cell.mean_miss_rate),
                 cell.misses_qse, cell.switches});
      json += std::string(first_gov ? "" : ",\n") + "      \"" +
              governor_kind_name(kind) + "\": " + cell.to_json();
      first_gov = false;
    }
    json += "\n    }";
  }
  json += "\n  },\n";

  // Observability cell: trace + telemetry + SLO must be pure observation
  // (byte-identical stats; the checks inside abort otherwise) and the
  // telemetry/SLO dumps must be bit-deterministic across repeats.
  const ObsCell obs = run_observability_cell(seed);
  json += "  \"observability\": {\"trace_off_identical\": true, "
          "\"telemetry_deterministic\": true, \"trace_events\": " +
          std::to_string(obs.trace_events) +
          ", \"telemetry_points\": " + std::to_string(obs.telemetry_points) +
          ", \"slo_breaches\": " + std::to_string(obs.slo_breaches) +
          ", \"wall_off_ms\": " + fmt_f(obs.wall_off_ms, 2) +
          ", \"wall_on_ms\": " + fmt_f(obs.wall_on_ms, 2) + "}\n}\n";
  std::cout << t.str();
  std::cout << "\nobservability: obs-off stats byte-identical to fully "
            << "instrumented run: yes;\ntelemetry dump bit-deterministic "
            << "across repeats: yes.  Instrumented run\nrecorded "
            << obs.trace_events << " trace events, " << obs.telemetry_points
            << " telemetry points, " << obs.slo_breaches
            << " SLO breach(es)\n(" << fmt_f(obs.wall_off_ms, 1)
            << " ms bare vs " << fmt_f(obs.wall_on_ms, 1)
            << " ms instrumented wall).\n";

  std::ofstream out(out_path);
  out << json;
  out.close();
  std::cout << "\nwrote " << out_path << "\n"
            << "FIFO launches whatever arrived first, so during bursts the\n"
            << "queue's tail blows deadlines that EDF meets by launching the\n"
            << "most urgent work first.  The node rows split the same load\n"
            << "across resident models sharing one battery: every step-down\n"
            << "switches all of them at one drain boundary.  Under overload,\n"
            << "feasibility admission rejects requests no immediate solo\n"
            << "launch could serve, so the served-request miss rate drops\n"
            << "below edf shedding alone.\n";
  return 0;
}
