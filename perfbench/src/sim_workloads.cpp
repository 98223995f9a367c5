// node-burst and rl-lowbatt: open-loop serving sessions on the virtual
// clock, one caller thread, timed from outside each serve() call.
//
// Every run builds two identical sessions from the seed: a plain one
// (timed for the end-to-end metrics) and a decorated one whose governor
// policy and execution backends are TracedPolicy / TracedBackend.  The
// plain session's first pass over the schedules is the behaviour oracle:
// every later session, plain or decorated, must reproduce its stats JSON
// byte for byte.
#include <cmath>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "clock.hpp"
#include "common/check.hpp"
#include "common/rng.hpp"
#include "decorators.hpp"
#include "rl/governor.hpp"
#include "serve/node.hpp"
#include "serve/policy.hpp"
#include "serve/session.hpp"
#include "serve/traffic.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using rt3::NodeSession;
using rt3::NodeStats;
using rt3::Request;
using rt3::ServerStats;
using rt3::ServeSession;
using rt3::ServeSessionConfig;
using Schedule = std::vector<Request>;

// ---------------------------------------------------------------- inputs

/// node-burst: distinct multi-hour schedules cycled by the timed loop.
constexpr std::int64_t kNodeSchedules = 6;
constexpr double kNodeHours = 2.0;
constexpr std::int64_t kNodeModels = 3;
/// Sized near a session's demand (~42.7 mJ per completed request at
/// 3 req/s), so every ladder level is visited and few requests drop.
constexpr double kNodeBatteryMj = 0.97 * 42.7 * 3.0 * 3600.0 * kNodeHours;
constexpr std::int64_t kNodeSetupRepeats = 5;

/// rl-lowbatt: 60 s burst discharges on a 7 kmJ battery.
constexpr std::int64_t kRlSchedules = 64;
constexpr double kRlBatteryMj = 7'000.0;
constexpr double kRlTrainBatteryMj = 12'000.0;
constexpr std::int64_t kRlEpisodesPerPhase = 12;
constexpr std::int64_t kRlSetupRepeats = 3;

/// The repo's serving-bench traffic: mixed 30% tight 350 ms / 70% 1 s
/// deadlines at 3 req/s mean over 60 s.
rt3::TrafficConfig bench_traffic(rt3::TrafficScenario scenario,
                                 std::uint64_t seed) {
  rt3::TrafficConfig t;
  t.scenario = scenario;
  t.rate_rps = 3.0;
  t.duration_ms = 60'000.0;
  t.deadline_slack_ms = 1'000.0;
  t.tight_fraction = 0.3;
  t.tight_slack_ms = 350.0;
  t.seed = seed;
  return t;
}

rt3::TrafficConfig node_burst_traffic(std::uint64_t seed, std::int64_t k) {
  rt3::TrafficConfig t = bench_traffic(
      rt3::TrafficScenario::kBurst,
      derive_seed(seed, 100 + static_cast<std::uint64_t>(k)));
  t.duration_ms = kNodeHours * 3600.0 * 1000.0;
  t.priority_classes = 3;
  t.num_models = kNodeModels;
  return t;
}

ServeSessionConfig node_burst_session(std::uint64_t seed) {
  ServeSessionConfig c;
  c.battery_capacity_mj = kNodeBatteryMj;
  c.scheduler.policy = rt3::SchedulingPolicy::kEdfPriority;
  c.governor_margin = 0.05;
  c.shed_expired = true;
  c.admit_feasible = true;
  c.seed = derive_seed(seed, 1);
  return c;
}

/// The RL governor exactly as the repo's serving bench trains it
/// (train_bench_governor in bench/bench_serve_traffic.cpp, bench seed 7):
/// 12 REINFORCE episodes at full battery, then 12 more on the same
/// weights at 7 kmJ.  It is trained from this fixed seed, not from the
/// run seed: 24 episodes leave REINFORCE far from converged, and policies
/// trained from different seeds range from "always l6" to "always l3",
/// which changes host cost per session by 3x.  Fixing the governor keeps
/// the run-to-run spread about the host; the run seed drives the traffic.
constexpr std::uint64_t kRlModelSeed = 7;

std::shared_ptr<rt3::RlGovernorPolicy> train_rl() {
  const std::uint64_t seed = kRlModelSeed;
  rt3::GovernorTrainConfig tcfg;
  tcfg.episodes = kRlEpisodesPerPhase;
  tcfg.policy.seed = 11;
  tcfg.traffic = bench_traffic(rt3::TrafficScenario::kSteady, seed);
  tcfg.traffic_seed = seed;
  tcfg.sample_seed = seed + 1234;
  tcfg.reward.reference_lifetime_ms = tcfg.traffic.duration_ms;
  tcfg.session.battery_capacity_mj = kRlTrainBatteryMj;
  tcfg.session.seed = 11;
  const rt3::GovernorTrainResult full = rt3::train_governor(tcfg);

  rt3::Rng sample_rng(seed + 4321);
  ServeSessionConfig scfg = tcfg.session;
  scfg.battery_capacity_mj = kRlBatteryMj;
  scfg.governor = rt3::GovernorKind::kRl;
  scfg.governor_policy = full.policy;
  ServeSession session(scfg);
  for (std::int64_t e = 0; e < kRlEpisodesPerPhase; ++e) {
    rt3::TrafficConfig traffic = tcfg.traffic;
    traffic.scenario = tcfg.scenarios[static_cast<std::size_t>(e) %
                                      tcfg.scenarios.size()];
    traffic.seed = seed + 100 + static_cast<std::uint64_t>(e);
    const Schedule schedule = rt3::generate_traffic(traffic);
    full.policy->set_sample_rng(&sample_rng);
    const ServerStats stats = session.server().serve(schedule);
    if (full.policy->decisions_this_episode() > 0) {
      full.policy->update(rt3::governor_reward(tcfg.reward, stats));
    }
  }
  full.policy->set_sample_rng(nullptr);
  full.policy->reset();
  return full.policy;
}

// ------------------------------------------------------------ stats view

std::vector<const ServerStats*> shards_of(const ServerStats& stats) {
  return {&stats};
}

std::vector<const ServerStats*> shards_of(const NodeStats& stats) {
  std::vector<const ServerStats*> out;
  for (const auto& [id, s] : stats.per_model) {
    (void)id;
    out.push_back(&s);
  }
  return out;
}

std::int64_t unroutable_of(const ServerStats&) { return 0; }
std::int64_t unroutable_of(const NodeStats& stats) { return stats.unroutable; }

/// Run-end invariants of one session; "" when all hold.
template <typename Stats>
std::string stats_violation(const Stats& stats, std::size_t scheduled) {
  std::int64_t submitted = unroutable_of(stats);
  for (const ServerStats* s : shards_of(stats)) {
    if (s->submitted != s->completed + s->shed + s->rejected + s->dropped) {
      return "submitted != completed + shed + rejected + dropped";
    }
    if (s->miss_queued + s->miss_switch + s->miss_exec != s->deadline_misses) {
      return "miss attribution does not sum to deadline misses";
    }
    submitted += s->submitted;
  }
  if (submitted != static_cast<std::int64_t>(scheduled) ||
      stats.submitted != submitted) {
    return "submitted (+ unroutable) != scheduled requests";
  }
  return "";
}

/// Virtual-time behaviour pooled over the distinct schedules of a run:
/// deterministic per seed, so a host-only change must leave it identical.
struct Behaviour {
  std::int64_t submitted = 0;
  std::int64_t completed = 0;
  std::int64_t shed = 0;
  std::int64_t rejected = 0;
  std::int64_t dropped = 0;
  std::int64_t unroutable = 0;
  std::int64_t misses = 0;
  std::int64_t batches = 0;
  std::int64_t switches = 0;
  double energy_mj = 0.0;
  double switch_stall_ms = 0.0;
  std::vector<double> runs_per_level;
  std::vector<double> latency_ms;
  std::vector<double> queue_wait_ms;
  std::vector<double> batch_wait_ms;

  template <typename Stats>
  void add(const Stats& stats) {
    unroutable += unroutable_of(stats);
    submitted += stats.submitted;
    for (const ServerStats* s : shards_of(stats)) {
      completed += s->completed;
      shed += s->shed;
      rejected += s->rejected;
      dropped += s->dropped;
      misses += s->deadline_misses;
      batches += s->batches;
      switches += s->switches;
      energy_mj += s->energy_used_mj;
      switch_stall_ms += s->switch_stall_total_ms();
      runs_per_level.resize(s->runs_per_level.size(), 0.0);
      for (std::size_t i = 0; i < s->runs_per_level.size(); ++i) {
        runs_per_level[i] += s->runs_per_level[i];
      }
      latency_ms.insert(latency_ms.end(), s->latency_ms.begin(),
                        s->latency_ms.end());
      queue_wait_ms.insert(queue_wait_ms.end(), s->queue_wait_ms.begin(),
                           s->queue_wait_ms.end());
      batch_wait_ms.insert(batch_wait_ms.end(), s->batch_wait_ms.begin(),
                           s->batch_wait_ms.end());
    }
  }

  /// A refused or dropped request counts as a miss.
  double slo_miss_rate() const {
    return static_cast<double>(misses + shed + rejected + dropped +
                               unroutable) /
           static_cast<double>(submitted);
  }
  double good_req_per_j() const {
    return static_cast<double>(completed - misses) / (energy_mj / 1000.0);
  }
};

// -------------------------------------------------------------- the rigs

NodeStats serve(NodeSession& session, const Schedule& schedule) {
  return session.node().serve(schedule);
}

ServerStats serve(ServeSession& session, const Schedule& schedule) {
  return session.server().serve(schedule);
}

/// Wraps a server's built-in analytic backend; the Server keeps owning
/// the analytic backend, so the wrapper's reference stays valid.
TracedBackend* wrap_backend(rt3::Server& server) {
  rt3::check(std::string(server.exec_backend().name()) == "analytic",
             "perfbench: expected the built-in analytic backend");
  auto wrapped = std::make_unique<TracedBackend>(server.exec_backend(),
                                                 nullptr);
  TracedBackend* view = wrapped.get();
  server.adopt_backend(std::move(wrapped));
  return view;
}

template <typename Session>
struct Rig {
  std::vector<Schedule> schedules;
  std::unique_ptr<Session> plain;
  std::unique_ptr<Session> decorated;
  std::shared_ptr<TracedPolicy> policy;
  std::vector<TracedBackend*> backends;

  void set_spans(SpanRecorder* spans) {
    policy->set_spans(spans);
    for (TracedBackend* b : backends) {
      b->set_spans(spans);
    }
  }
};

struct SetupTimes {
  double traffic_ms = 0.0;
  double build_ms = 0.0;
  double train_ms = 0.0;
};

Rig<NodeSession> setup_node_burst(std::uint64_t seed, SetupTimes& times) {
  Rig<NodeSession> rig;
  double t0 = host_ms();
  for (std::int64_t k = 0; k < kNodeSchedules; ++k) {
    rig.schedules.push_back(rt3::generate_traffic(node_burst_traffic(seed, k)));
  }
  times.traffic_ms = host_ms() - t0;
  t0 = host_ms();
  ServeSessionConfig cfg = node_burst_session(seed);
  rig.plain = std::make_unique<NodeSession>(cfg, kNodeModels);
  rig.policy = std::make_shared<TracedPolicy>(
      std::make_shared<rt3::LadderPolicy>(
          rt3::Governor::equal_tranches(rt3::paper_serve_ladder())),
      nullptr);
  cfg.governor_policy = rig.policy;
  rig.decorated = std::make_unique<NodeSession>(cfg, kNodeModels);
  rt3::ServeNode& node = rig.decorated->node();
  for (const std::int64_t id : node.registry().ids()) {
    rig.backends.push_back(wrap_backend(node.model(id)));
  }
  times.build_ms = host_ms() - t0;
  return rig;
}

Rig<ServeSession> setup_rl_lowbatt(std::uint64_t seed, SetupTimes& times) {
  Rig<ServeSession> rig;
  double t0 = host_ms();
  for (std::int64_t k = 0; k < kRlSchedules; ++k) {
    rig.schedules.push_back(rt3::generate_traffic(bench_traffic(
        rt3::TrafficScenario::kBurst,
        derive_seed(seed, 100 + static_cast<std::uint64_t>(k)))));
  }
  times.traffic_ms = host_ms() - t0;
  t0 = host_ms();
  const std::shared_ptr<rt3::RlGovernorPolicy> trained = train_rl();
  times.train_ms = host_ms() - t0;
  t0 = host_ms();
  ServeSessionConfig cfg;
  cfg.battery_capacity_mj = kRlBatteryMj;
  cfg.seed = derive_seed(seed, 1);
  cfg.governor = rt3::GovernorKind::kRl;
  cfg.governor_policy = trained;
  rig.plain = std::make_unique<ServeSession>(cfg);
  rig.policy = std::make_shared<TracedPolicy>(trained, nullptr);
  cfg.governor_policy = rig.policy;
  rig.decorated = std::make_unique<ServeSession>(cfg);
  rig.backends.push_back(wrap_backend(rig.decorated->server()));
  times.build_ms = host_ms() - t0;
  return rig;
}

// ------------------------------------------------------------ the runner

std::string session_label(std::int64_t k) {
  return "schedule " + std::to_string(k);
}

template <typename Session, typename SetupFn>
Result run_sim(const RunOptions& opt, std::int64_t setup_repeats,
               SetupFn setup) {
  Result result;

  // Set-up, repeated so setup_s is a median; the last rig is kept.
  std::vector<double> setup_s, traffic_s, build_s, train_s;
  Rig<Session> rig;
  for (std::int64_t r = 0; r < setup_repeats; ++r) {
    rig = Rig<Session>{};
    SetupTimes times;
    const double t0 = host_ms();
    rig = setup(opt.seed, times);
    setup_s.push_back((host_ms() - t0) / 1e3);
    traffic_s.push_back(times.traffic_ms / 1e3);
    build_s.push_back(times.build_ms / 1e3);
    train_s.push_back(times.train_ms / 1e3);
  }
  const auto num_schedules = static_cast<std::int64_t>(rig.schedules.size());

  // Reference pass (untimed; also the warm-up): the behaviour oracle.
  std::vector<std::string> reference;
  Behaviour behaviour;
  for (std::int64_t k = 0; k < num_schedules; ++k) {
    const Schedule& schedule = rig.schedules[static_cast<std::size_t>(k)];
    const auto stats = serve(*rig.plain, schedule);
    const std::string violation = stats_violation(stats, schedule.size());
    result.op(violation.empty(), session_label(k) + ": " + violation);
    reference.push_back(stats.to_json());
    behaviour.add(stats);
    // Same-seed repeat on the same session: byte-identical stats.
    result.op(serve(*rig.plain, schedule).to_json() == reference.back(),
              session_label(k) + ": same-seed repeat changed the stats");
  }

  // Decorated pass with recording on: byte-identical to the oracle.  Its
  // decorator counts are deterministic per seed.
  SpanRecorder scratch(0);
  rig.set_spans(&scratch);
  for (std::int64_t k = 0; k < num_schedules; ++k) {
    const auto stats =
        serve(*rig.decorated, rig.schedules[static_cast<std::size_t>(k)]);
    result.op(stats.to_json() == reference[static_cast<std::size_t>(k)],
              session_label(k) + ": traced session differs from untraced");
  }
  const std::int64_t decides = rig.policy->decides();
  const std::int64_t level_changes = rig.policy->level_changes();
  std::int64_t run_batch_calls = 0;
  std::int64_t activate_calls = 0;
  for (const TracedBackend* b : rig.backends) {
    run_batch_calls += b->run_batch_calls();
    activate_calls += b->activate_calls();
  }

  // Timed loop.  Untraced: plain sessions only.  Traced: each plain
  // session is followed by the decorated one on the same schedule, so the
  // pair gives the tracing overhead.
  SpanRecorder spans;
  rig.set_spans(opt.traced ? &spans : nullptr);
  std::vector<std::int64_t> plain_k;  // schedule each timed call served
  std::vector<double> plain_ms;
  double plain_total_ms = 0.0;
  double traced_total_ms = 0.0;
  std::int64_t traced_submitted = 0;
  const double deadline = host_ms() + opt.seconds * 1e3;
  for (std::int64_t op = 0; op < num_schedules || host_ms() < deadline;
       ++op) {
    const std::int64_t k = op % num_schedules;
    const Schedule& schedule = rig.schedules[static_cast<std::size_t>(k)];
    const std::string& expected = reference[static_cast<std::size_t>(k)];
    const double t0 = host_ms();
    const auto stats = serve(*rig.plain, schedule);
    const double wall = host_ms() - t0;
    plain_k.push_back(k);
    plain_ms.push_back(wall);
    plain_total_ms += wall;
    const std::string violation = stats_violation(stats, schedule.size());
    result.op(violation.empty() && stats.to_json() == expected,
              session_label(k) + ": " +
                  (violation.empty() ? "stats differ from the reference pass"
                                     : violation));
    if (opt.traced) {
      spans.open_root(SpanKind::kServe, op, host_ms());
      const auto traced = serve(*rig.decorated, schedule);
      spans.close_root(host_ms());
      traced_total_ms += spans.durations(SpanKind::kServe).back();
      traced_submitted += traced.submitted;
      result.op(traced.to_json() == expected,
                session_label(k) + ": traced session differs from untraced");
    }
  }

  result.line("setup: median of " + std::to_string(setup_repeats) +
              " set-ups; timed loop: " + std::to_string(plain_ms.size()) +
              " serve() calls over " + std::to_string(num_schedules) +
              " distinct schedules");
  result.line("workload metrics (virtual ones pooled over the "
              "distinct schedules):");
  result.detail("setup_s", median(setup_s), "s");
  // Per schedule, the fastest of its repeats (see best_per_input).
  const std::vector<double> best_ms =
      best_per_input(plain_k, plain_ms, num_schedules);
  double best_total_ms = 0.0;
  for (const double ms : best_ms) {
    best_total_ms += ms;
  }
  const double best_req_per_s =
      static_cast<double>(behaviour.submitted) / (best_total_ms / 1e3);
  result.detail("sim_req_per_s (fastest repeat of each schedule)",
                best_req_per_s, "req/s");
  double timed_requests = 0.0;
  for (const std::int64_t k : plain_k) {
    timed_requests +=
        static_cast<double>(rig.schedules[static_cast<std::size_t>(k)].size());
  }
  result.detail("sim_req_per_s (all calls)",
                timed_requests / (plain_total_ms / 1e3), "req/s");
  result.detail("serve_call_ms_best (mean over schedules)", mean(best_ms),
                "ms");
  result.detail("serve_call_ms_p50", median(plain_ms), "ms");
  if (const std::optional<Tail> tail = highest_tail(plain_ms)) {
    result.detail("serve_call_ms_p" + json_number(tail->p), tail->value, "ms");
  }
  result.detail("slo_miss_rate", behaviour.slo_miss_rate(), "fraction");
  result.detail("latency_p50_ms", percentile(behaviour.latency_ms, 50.0),
                "virtual ms");
  if (const std::optional<double> p99 =
          tail_percentile(behaviour.latency_ms, 99.0)) {
    result.detail("latency_p99_ms", *p99, "virtual ms");
  }
  result.detail("good_req_per_j", behaviour.good_req_per_j(), "req/J");
  std::string levels;
  for (const double runs : behaviour.runs_per_level) {
    levels += (levels.empty() ? "" : " / ") + json_number(runs);
  }
  result.line("  completed per level (l6 / l4 / l3): " + levels + " of " +
              std::to_string(behaviour.submitted) + " submitted; shed " +
              std::to_string(behaviour.shed) + ", rejected " +
              std::to_string(behaviour.rejected) + ", dropped " +
              std::to_string(behaviour.dropped) + ", unroutable " +
              std::to_string(behaviour.unroutable));

  if (!opt.traced) {
    result.set("setup_s", median(setup_s));
    result.set("req_per_s", best_req_per_s);
    result.set("call_ms_best", mean(best_ms));
    return result;
  }

  // Per-layer metrics from the traced half of the loop.
  const double serve_ms = spans.total_ms(SpanKind::kServe);
  const double serve_self_ms = spans.self_ms(SpanKind::kServe);
  const double governor_ms = spans.total_ms(SpanKind::kDecide) +
                             spans.total_ms(SpanKind::kObserveBatch);
  const double exec_ms = spans.total_ms(SpanKind::kRunBatch) +
                         spans.total_ms(SpanKind::kActivateLevel);
  const double unaccounted = serve_ms - (serve_self_ms + governor_ms + exec_ms);
  result.op(std::abs(unaccounted) <= 1e-9 * serve_ms,
            "serve + governor + exec self times do not sum to the serve span");
  result.line("traced: " +
              std::to_string(spans.count(SpanKind::kServe)) +
              " traced serve() spans; self-time shares serve / governor / "
              "exec = " +
              json_number(serve_self_ms / serve_ms) + " / " +
              json_number(governor_ms / serve_ms) + " / " +
              json_number(exec_ms / serve_ms) + " of " +
              json_number(serve_ms) + " ms");
  const std::vector<double>& decide_ms = spans.durations(SpanKind::kDecide);
  std::vector<double> decide_us;
  decide_us.reserve(decide_ms.size());
  for (const double ms : decide_ms) {
    decide_us.push_back(ms * 1e3);
  }
  result.set("serve.self_us_per_req",
             serve_self_ms * 1e3 / static_cast<double>(traced_submitted));
  result.set("serve.batches", static_cast<double>(behaviour.batches));
  result.set("serve.mean_batch_size",
             static_cast<double>(behaviour.completed) /
                 static_cast<double>(behaviour.batches));
  if (const auto q = tail_percentile(behaviour.queue_wait_ms, 99.0)) {
    result.set("serve.queue_wait_ms_p99", *q);
  }
  if (const auto b = tail_percentile(behaviour.batch_wait_ms, 99.0)) {
    result.set("serve.batch_wait_ms_p99", *b);
  }
  result.set("serve.switch_stall_ms_total", behaviour.switch_stall_ms);
  result.set("serve.switches", static_cast<double>(behaviour.switches));
  result.set("serve.admit_ratio",
             1.0 - static_cast<double>(behaviour.rejected) /
                       static_cast<double>(behaviour.submitted));
  result.set("serve.slo_miss_rate", behaviour.slo_miss_rate());
  result.set("serve.latency_p50_ms", percentile(behaviour.latency_ms, 50.0));
  if (const auto p99 = tail_percentile(behaviour.latency_ms, 99.0)) {
    result.set("serve.latency_p99_ms", *p99);
  }
  result.set("serve.good_req_per_j", behaviour.good_req_per_j());
  result.set("governor.decide_calls", static_cast<double>(decides));
  result.set("governor.decide_us_p50", median(decide_us));
  if (const auto p99 = tail_percentile(decide_us, 99.0)) {
    result.set("governor.decide_us_p99", *p99);
  }
  result.set("governor.self_share", governor_ms / serve_ms);
  result.set("governor.switches_per_1k_decides",
             1000.0 * static_cast<double>(level_changes) /
                 static_cast<double>(decides));
  result.set("exec.run_batch_calls", static_cast<double>(run_batch_calls));
  result.set("exec.activate_calls", static_cast<double>(activate_calls));
  result.set("exec.self_share", exec_ms / serve_ms);
  result.set("setup.traffic_s", median(traffic_s));
  result.set("setup.build_s", median(build_s));
  if (median(train_s) > 0.0) {
    result.set("setup.train_s", median(train_s));
  }
  result.set("trace.overhead_ratio", traced_total_ms / plain_total_ms);
  result.line("tracing overhead: traced serve() " +
              json_number(traced_total_ms) + " ms vs untraced " +
              json_number(plain_total_ms) + " ms over the same schedules");
  write_trace(spans, opt.trace_path, result);
  return result;
}

}  // namespace

Result run_node_burst(const RunOptions& options) {
  return run_sim<NodeSession>(options, kNodeSetupRepeats, setup_node_burst);
}

Result run_rl_lowbatt(const RunOptions& options) {
  return run_sim<ServeSession>(options, kRlSetupRepeats, setup_rl_lowbatt);
}

}  // namespace perfbench
