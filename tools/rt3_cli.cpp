// rt3 — command-line front end for the RT3 pipeline and runtime.
//
//   rt3 search [--t MS] [--episodes N] [--out FILE]   run the two-level
//       AutoML search on the built-in WikiText-2 analog and write a
//       deployment package
//   rt3 info FILE                                     inspect a package
//   rt3 simulate [--capacity MJ] [--t MS]             battery discharge
//       simulation across the paper's {l6,l4,l3} ladder
//   rt3 serve [--scenario NAME] ...                   battery-aware serve
//       session: open-loop seeded traffic, dynamic batching,
//       pattern-set switches between batches as the governor steps the
//       ladder down.  Flags:
//         --scenario NAME    steady | burst | diurnal        (burst)
//         --backend NAME     analytic | measured             (analytic)
//         --policy NAME      fifo | edf | edf-prio           (fifo)
//         --capacity MJ      battery budget                  (12000)
//         --t MS             timing constraint / per-level
//                            sparsity target                 (115)
//         --rate RPS         mean request rate               (3)
//         --duration MS      arrival-process length          (60000)
//         --slack MS         per-request deadline slack      (350)
//         --jitter F         slack jitter fraction: per-request slack
//                            uniform in slack*(1 +- F)       (0)
//         --tight-frac F     fraction of interactive requests whose base
//                            slack is --tight-slack instead   (0)
//         --tight-slack MS   interactive deadline slack      (150)
//         --batch N          max batch size                  (2)
//         --wait MS          max batch wait                  (20)
//         --classes N        traffic priority classes        (1)
//         --prio-weight MS   edf-prio key penalty per class  (400)
//         --aging R          edf-prio anti-starvation rate   (0.5)
//         --governor NAME    level-decision policy           (ladder)
//                            ladder   static battery thresholds (paper)
//                            adaptive ladder + self-sizing batch margin
//                            rl       learned GRU governor; requires a
//                                     trained --governor-policy artifact
//         --governor-policy FILE  rt3-governor artifact from
//                            `rt3 train-governor` (implies --governor rl)
//         --governor-margin F  battery-fraction margin above the next
//                            step-down threshold inside which batches
//                            shrink to --governor-batch      (0 = off)
//         --governor-batch N batch cap inside the margin     (1)
//         --threads N        measured-backend pool workers; a split launch
//                            also runs on the caller (cores - 1; >= 1)
//         --tuning FILE      apply an `rt3 tune` record to the measured
//                            backend's plan cache before serving
//         --shed             drop requests whose deadline is
//                            already blown (load shedding)
//         --admit            feasibility-based admission: reject requests
//                            whose deadline no immediate solo launch
//                            could meet (counted separately from shed)
//         --seed S           traffic seed                    (7)
//         --trace FILE       write the session's request/batch/switch
//                            lifecycle as Chrome trace-event JSON
//                            (load in ui.perfetto.dev)
//         --max-trace-events N  cap stored trace events; overflow is
//                            dropped + counted in the trace footer (0 =
//                            unbounded)
//         --metrics FILE     write the session's metrics registry
//                            (counters/gauges/histograms)
//         --metrics-format F json | prom (Prometheus text exposition)
//         --telemetry FILE   continuous telemetry: record per-batch time
//                            series (queue depth, battery, EWMAs, ...)
//                            and write them as JSON; with --trace the
//                            series also merge into the trace as counter
//                            tracks
//         --sample-every N   telemetry cadence: record series points at
//                            every Nth batch boundary  (1)
//         --slo              evaluate the default SLO rules (miss
//                            burn-rate, latency EWMA, battery slope);
//                            breach/recover events land on trace lane 0
//                            and episodes print + export with --telemetry
//       Flags also accept --flag=value form (common/args.hpp, shared with
//       the bench executables).  Every subcommand but `report` rejects a
//       flag it does not list here with an error naming it (exit 1).
//   rt3 node [--models N] ...                         multi-model serving
//       node: N backbone-resident models behind ONE battery/governor,
//       requests routed by model id with optional feasibility admission.
//       Takes every `rt3 serve` flag but --tuning (applied per model)
//       plus:
//         --models N         resident models on the node     (3)
//   rt3 tune [--out FILE] ...                         offline kernel
//       autotuner: measures each (layer, level) of the measured backend's
//       plan cache — every k_tile of the ladder for dense kernels, the one
//       launch otherwise — and writes the fastest as an rt3-tuning v4
//       record for `rt3 serve --tuning`.  Flags:
//         --out FILE         tuning record destination  (rt3_tuning.txt)
//         --load FILE        skip the search: load FILE, apply it, and
//                            re-serialize to --out (format round-trip)
//         --repeats N        measurements per candidate, median     (3)
//         --tune-batch N     batch size tuned at                    (1)
//       plus the `rt3 serve` session flags (--t, --threads, ...).
//   rt3 train-governor [--episodes N] [--out FILE] ...  offline REINFORCE
//       training of the learned runtime governor (rl/governor.hpp): each
//       episode is one full seeded virtual-clock serving session, the
//       reward trades served fraction and battery lifetime against
//       deadline misses, and the trained policy is written as an
//       "rt3-governor v1" text artifact for `rt3 serve --governor rl
//       --governor-policy FILE`.  Flags:
//         --out FILE         artifact destination   (rt3_governor.txt)
//         --load FILE        skip training: load FILE and re-serialize to
//                            --out (format round-trip, like `rt3 tune`)
//         --episodes N       training episodes                (30)
//         --hidden N         GRU hidden width                 (16)
//         --lr F             Adam learning rate               (0.005)
//         --governor-seed S  weight-init seed                 (11)
//         --sample-seed S    action-sampling seed             (1234)
//       plus the `rt3 serve` session + traffic flags (--capacity, --t,
//       --rate, --duration, --seed, ...), which define the episodes.
//   rt3 report [ARGS...]                              render a session
//       report (series + SLO breaches + miss attribution) via
//       tools/report.py; see `rt3 report --help`
//   rt3 levels                                        print the V/F ladder
#include <cstdlib>
#include <fstream>
#include <initializer_list>
#include <iostream>
#include <string>
#include <vector>

#include "common/args.hpp"
#include "common/check.hpp"
#include "common/table.hpp"
#include "core/pipeline.hpp"
#include "exec/backend.hpp"
#include "exec/simd.hpp"
#include "exec/tuner.hpp"
#include "obs/metrics.hpp"
#include "obs/slo.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"
#include "rl/governor.hpp"
#include "runtime/engine.hpp"
#include "serve/node.hpp"
#include "serve/policy.hpp"
#include "serve/server.hpp"
#include "serve/session.hpp"
#include "serve/traffic.hpp"

namespace {

using namespace rt3;

int cmd_levels() {
  const VfTable table = VfTable::odroid_xu3_a7();
  const PowerModel power;
  TablePrinter t({"level", "freq (MHz)", "volt (mV)", "power (mW)"});
  for (std::int64_t i = 0; i < table.size(); ++i) {
    const auto& l = table.level(i);
    t.add_row({l.name, fmt_f(l.freq_mhz, 0), fmt_f(l.volt_mv, 2),
               fmt_f(power.power_mw(l), 1)});
  }
  std::cout << t.str();
  return 0;
}

int cmd_info(const std::string& path) {
  const DeploymentPackage pkg = DeploymentPackage::load(path);
  std::cout << "package: " << path << "\n"
            << "  parameters   : " << pkg.params.size() << " tensors, "
            << pkg.resident_bytes() / 1024 << " KiB resident\n"
            << "  backbone masks: " << pkg.backbone_masks.size() << "\n"
            << "  pattern sets : " << pkg.pattern_sets.size() << "\n\n";
  TablePrinter t({"level", "freq", "pattern spars.", "overall spars.",
                  "latency (ms)", "accuracy", "switch bytes"});
  for (std::size_t i = 0; i < pkg.levels.size(); ++i) {
    const auto& m = pkg.levels[i];
    t.add_row({m.level_name, fmt_f(m.freq_mhz, 0),
               fmt_pct(m.pattern_sparsity), fmt_pct(m.overall_sparsity),
               fmt_f(m.latency_ms, 2), fmt_pct(m.accuracy),
               std::to_string(pkg.switch_bytes(static_cast<std::int64_t>(i)))});
  }
  std::cout << t.str();
  return 0;
}

int cmd_search(const std::vector<std::string>& args) {
  reject_unknown_flags(args, {"--t", "--episodes", "--out"}, "rt3 search");
  const double t_ms = arg_double(args, "--t", 104.0);
  const std::int64_t episodes = arg_int(args, "--episodes", 4);
  check(episodes >= 0, "--episodes: must be >= 0");
  const std::string out = arg_string(args, "--out", "rt3_package.bin");

  std::cout << "training workload and running RT3 search (T = " << t_ms
            << " ms, " << episodes << " episodes)...\n";
  CorpusConfig ccfg;
  ccfg.vocab_size = 64;
  ccfg.num_tokens = 8000;
  const Corpus corpus(ccfg);
  TransformerLmConfig mcfg;
  mcfg.vocab_size = 64;
  mcfg.d_model = 32;
  mcfg.num_heads = 4;
  mcfg.ffn_hidden = 64;
  TransformerLm model(mcfg);
  LmTrainingTask task(model, corpus);
  TrainConfig pre;
  pre.steps = 200;
  pre.batch = 12;
  pre.seq_len = 16;
  pre.lr = 8e-3F;
  train(task, pre);

  Rt3Options options;
  options.timing_constraint_ms = t_ms;
  options.episodes = episodes;
  options.bp.num_blocks = 4;
  options.bp.prune_fraction = 0.35;
  options.space.psize = 8;
  options.episode_train.steps = 16;
  options.final_train.steps = 80;
  options.backbone_train.steps = 50;
  Rt3Pipeline pipeline(task, options);
  const Rt3Result result = pipeline.run();

  TablePrinter t({"level", "sparsity", "latency", "accuracy"});
  for (const auto& sub : result.levels) {
    t.add_row({sub.level_name, fmt_pct(sub.overall_sparsity),
               fmt_f(sub.latency_ms, 2) + " ms", fmt_pct(sub.accuracy)});
  }
  std::cout << t.str();
  pipeline.package(result).save(out);
  std::cout << "wrote " << out << "\n";
  return 0;
}

int cmd_simulate(const std::vector<std::string>& args) {
  reject_unknown_flags(args, {"--capacity", "--t"}, "rt3 simulate");
  const double capacity = arg_double(args, "--capacity", 5e4);
  const double t_ms = arg_double(args, "--t", 115.0);
  const VfTable table = VfTable::odroid_xu3_a7();
  const PowerModel power;
  const ModelSpec spec = ModelSpec::paper_transformer();
  const LatencyModel latency = paper_transformer_latency();
  const std::vector<double> sparsities = paper_ladder_sparsities(latency, t_ms);
  DischargeConfig cfg;
  cfg.battery_capacity_mj = capacity;
  cfg.timing_constraint_ms = t_ms;
  cfg.software_reconfig = true;
  const DischargeStats stats = simulate_discharge(
      cfg, table, Governor::equal_tranches(paper_serve_ladder()), power,
      latency, spec, sparsities, ExecMode::kPattern);
  std::cout << "battery " << capacity << " mJ, T = " << t_ms << " ms\n"
            << "  runs            : " << stats.total_runs << "\n"
            << "  deadline misses : " << stats.deadline_misses << "\n"
            << "  level switches  : " << stats.switches << "\n"
            << "  active time     : " << fmt_f(stats.simulated_seconds, 1)
            << " s\n";
  return 0;
}

/// The observability sinks a serve/node session may write at exit.
/// Null pointers mean "not enabled"; paths pair with their pointers.
struct ObsOutputs {
  const TraceRecorder* trace = nullptr;
  std::string trace_path;
  const MetricsRegistry* metrics = nullptr;
  std::string metrics_path;
  std::string metrics_format = "json";  // json | prom
  const TelemetrySampler* telemetry = nullptr;
  std::string telemetry_path;
  const SloMonitor* slo = nullptr;
};

/// Writes every enabled observability artifact and prints the epilogue.
/// Telemetry series merge into the trace as counter tracks first, so the
/// exported Chrome JSON carries them.
void report_observability(const ObsOutputs& obs, TraceRecorder* trace_mut) {
  if (obs.telemetry != nullptr && trace_mut != nullptr) {
    obs.telemetry->export_counters(*trace_mut);
  }
  if (obs.trace != nullptr) {
    obs.trace->write_chrome_json(obs.trace_path);
    std::cout << "\ntrace: " << obs.trace->num_events() << " events -> "
              << obs.trace_path
              << " (Chrome trace-event JSON; load in ui.perfetto.dev)\n";
    if (obs.trace->dropped_events() > 0) {
      std::cout << "trace: " << obs.trace->dropped_events()
                << " events dropped at the --max-trace-events cap ("
                << obs.trace->max_events() << ")\n";
    }
  }
  if (obs.metrics != nullptr) {
    std::ofstream out(obs.metrics_path);
    check(out.good(), "cannot open metrics output file: " + obs.metrics_path);
    if (obs.metrics_format == "prom") {
      out << obs.metrics->to_prometheus();
    } else {
      out << obs.metrics->to_json() << "\n";
    }
    std::cout << "metrics: " << obs.metrics->size() << " series -> "
              << obs.metrics_path << " (" << obs.metrics_format << ")\n";
  }
  if (obs.telemetry != nullptr) {
    std::ofstream out(obs.telemetry_path);
    check(out.good(),
          "cannot open telemetry output file: " + obs.telemetry_path);
    out << "{\"telemetry\": " << obs.telemetry->to_json() << ", \"slo\": "
        << (obs.slo != nullptr ? obs.slo->to_json() : "[]") << "}\n";
    std::cout << "telemetry: " << obs.telemetry->num_series()
              << " series, " << obs.telemetry->num_points() << " points ("
              << obs.telemetry->batches_seen() << " batches) -> "
              << obs.telemetry_path << "\n";
  }
  if (obs.slo != nullptr) {
    std::cout << "slo: " << obs.slo->breaches() << " breach episode(s)";
    if (obs.slo->active_breaches() > 0) {
      std::cout << ", " << obs.slo->active_breaches()
                << " still open at session end";
    }
    std::cout << "\n";
    for (const SloEpisode& e : obs.slo->episodes()) {
      std::cout << "  [" << e.rule << "] " << fmt_f(e.start_ms, 0)
                << " ms -> "
                << (e.end_ms < 0 ? "end" : fmt_f(e.end_ms, 0) + " ms")
                << " (trigger " << fmt_f(e.trigger_value, 2) << ")\n";
    }
  }
}

/// The flags each shared parser below reads.  A subcommand passes the
/// union of the groups it parses, plus its own flags, to
/// reject_unknown_flags.
const std::vector<std::string> kObsFlags = {
    "--trace", "--metrics", "--metrics-format", "--telemetry", "--slo",
    "--sample-every", "--max-trace-events"};
const std::vector<std::string> kSessionFlags = {
    "--capacity", "--t", "--batch", "--wait", "--backend", "--policy",
    "--prio-weight", "--aging", "--governor", "--governor-policy",
    "--governor-margin", "--governor-batch", "--threads", "--shed",
    "--admit"};
const std::vector<std::string> kTrafficFlags = {
    "--classes", "--jitter", "--tight-frac", "--tight-slack", "--scenario",
    "--rate", "--duration", "--slack", "--seed"};

std::vector<std::string> flag_union(
    std::initializer_list<std::vector<std::string>> groups) {
  std::vector<std::string> all;
  for (const std::vector<std::string>& group : groups) {
    all.insert(all.end(), group.begin(), group.end());
  }
  return all;
}

/// The observability flags shared by `rt3 serve` and `rt3 node`.
struct ObsFlags {
  std::string trace_path;
  std::string metrics_path;
  std::string metrics_format;
  std::string telemetry_path;
  bool slo = false;
  std::int64_t sample_every = 1;
  std::int64_t max_trace_events = 0;
};

ObsFlags parse_obs_flags(const std::vector<std::string>& args) {
  ObsFlags f;
  f.trace_path = arg_string(args, "--trace", "");
  f.metrics_path = arg_string(args, "--metrics", "");
  f.metrics_format = arg_string(args, "--metrics-format", "json");
  check(f.metrics_format == "json" || f.metrics_format == "prom",
        "--metrics-format must be json or prom");
  f.telemetry_path = arg_string(args, "--telemetry", "");
  f.slo = arg_present(args, "--slo");
  f.sample_every = arg_int(args, "--sample-every", 1);
  f.max_trace_events = arg_int(args, "--max-trace-events", 0);
  return f;
}

/// The per-model session flags shared by `rt3 serve` and `rt3 node`.
ServeSessionConfig parse_session_config(const std::vector<std::string>& args) {
  ServeSessionConfig scfg;
  scfg.battery_capacity_mj = arg_double(args, "--capacity", 12'000.0);
  scfg.timing_constraint_ms = arg_double(args, "--t", 115.0);
  scfg.batch.max_batch_size = arg_int(args, "--batch", 2);
  scfg.batch.max_wait_ms = arg_double(args, "--wait", 20.0);
  scfg.backend =
      exec_backend_from_name(arg_string(args, "--backend", "analytic"));
  scfg.scheduler.policy =
      scheduling_policy_from_name(arg_string(args, "--policy", "fifo"));
  scfg.scheduler.prio_weight_ms = arg_double(args, "--prio-weight", 400.0);
  scfg.scheduler.aging_ms_per_ms = arg_double(args, "--aging", 0.5);
  scfg.governor =
      governor_kind_from_name(arg_string(args, "--governor", "ladder"));
  const std::string policy_path = arg_string(args, "--governor-policy", "");
  if (!policy_path.empty()) {
    scfg.governor = GovernorKind::kRl;
    scfg.governor_policy = RlGovernorPolicy::load(
        policy_path, Governor::equal_tranches(paper_serve_ladder()));
  } else {
    check(scfg.governor != GovernorKind::kRl,
          "--governor rl needs a trained artifact: rt3 train-governor, "
          "then --governor-policy FILE");
  }
  scfg.governor_margin = arg_double(args, "--governor-margin", 0.0);
  scfg.governor_shrink_batch = arg_int(args, "--governor-batch", 1);
  scfg.measured_threads = arg_int(args, "--threads", scfg.measured_threads);
  check(scfg.measured_threads >= 1, "--threads must be >= 1");
  scfg.shed_expired = arg_present(args, "--shed");
  scfg.admit_feasible = arg_present(args, "--admit");
  return scfg;
}

/// The traffic flags shared by `rt3 serve` and `rt3 node`.
TrafficConfig parse_traffic_config(const std::vector<std::string>& args) {
  TrafficConfig tcfg;
  tcfg.priority_classes = arg_int(args, "--classes", 1);
  tcfg.deadline_slack_jitter = arg_double(args, "--jitter", 0.0);
  tcfg.tight_fraction = arg_double(args, "--tight-frac", 0.0);
  tcfg.tight_slack_ms = arg_double(args, "--tight-slack", 150.0);
  tcfg.scenario =
      traffic_scenario_from_name(arg_string(args, "--scenario", "burst"));
  tcfg.rate_rps = arg_double(args, "--rate", 3.0);
  tcfg.duration_ms = arg_double(args, "--duration", 60'000.0);
  tcfg.deadline_slack_ms = arg_double(args, "--slack", 350.0);
  tcfg.seed = static_cast<std::uint64_t>(arg_int(args, "--seed", 7));
  return tcfg;
}

int cmd_serve(const std::vector<std::string>& args) {
  reject_unknown_flags(
      args,
      flag_union({kSessionFlags, kTrafficFlags, kObsFlags, {"--tuning"}}),
      "rt3 serve");
  ServeSessionConfig scfg = parse_session_config(args);
  TrafficConfig tcfg = parse_traffic_config(args);
  const std::string tuning_path = arg_string(args, "--tuning", "");
  const ObsFlags obs_flags = parse_obs_flags(args);

  const std::vector<Request> schedule = generate_traffic(tcfg);
  ServeSession session(scfg);
  if (!tuning_path.empty()) {
    check(session.has_measured_backend(),
          "--tuning requires --backend measured");
    const TuningRecord record = TuningRecord::load(tuning_path);
    const std::int64_t applied =
        session.measured_backend().apply_tuning(record);
    std::cout << "tuning: applied " << applied << "/"
              << record.entries.size() << " entries from " << tuning_path
              << " (tuned under " << record.isa << ")\n";
  }
  // Wall stamps are fine here: the CLI is for humans, not byte-compare
  // tests (which construct their own recorder with record_wall off).
  TraceRecorder trace(
      TraceConfig{/*record_wall=*/true, obs_flags.max_trace_events});
  MetricsRegistry metrics;
  TelemetryConfig telemetry_cfg;
  telemetry_cfg.sample_every_batches = obs_flags.sample_every;
  TelemetrySampler telemetry(telemetry_cfg);
  SloMonitor slo(SloMonitor::default_rules());
  if (!obs_flags.trace_path.empty()) {
    session.server().set_trace(&trace);
  }
  if (!obs_flags.metrics_path.empty()) {
    session.server().set_metrics(&metrics);
  }
  if (!obs_flags.telemetry_path.empty()) {
    session.server().set_telemetry(&telemetry);
  }
  if (obs_flags.slo) {
    session.server().set_slo(&slo);
  }
  std::cout << "serving " << schedule.size() << " requests ("
            << traffic_scenario_name(tcfg.scenario) << ", "
            << fmt_f(tcfg.rate_rps, 1) << " req/s mean, "
            << fmt_f(tcfg.duration_ms / 1000.0, 0) << " s) over a "
            << fmt_f(scfg.battery_capacity_mj, 0) << " mJ battery, T = "
            << fmt_f(scfg.timing_constraint_ms, 0) << " ms, batch <= "
            << scfg.batch.max_batch_size << ", wait <= "
            << fmt_f(scfg.batch.max_wait_ms, 0) << " ms, "
            << exec_backend_name(scfg.backend) << " backend, "
            << scheduling_policy_name(scfg.scheduler.policy) << " policy"
            << (scfg.governor != GovernorKind::kLadder
                    ? ", " + governor_kind_name(scfg.governor) + " governor"
                    : "")
            << (tcfg.priority_classes > 1
                                 ? ", " + std::to_string(tcfg.priority_classes) +
                                       " priority classes"
                                 : "")
            << (scfg.governor_margin > 0.0
                    ? ", governor margin " + fmt_pct(scfg.governor_margin)
                    : "")
            << (scfg.shed_expired ? ", shedding" : "")
            << (scfg.admit_feasible ? ", feasibility admission" : "")
            << "\n\n";
  const ServerStats stats = session.server().serve(schedule);
  std::cout << stats.summary();
  std::cout << "  final engine lvl : " << session.engine().current_level()
            << " (0 = fastest)\n";
  if (session.has_measured_backend()) {
    std::cout << "  plan cache       : "
              << session.measured_backend().plans().num_levels()
              << " levels x "
              << session.measured_backend().plans().num_layers()
              << " layers pre-built in "
              << fmt_f(session.measured_backend().plans().build_wall_ms(), 2)
              << " ms; per-switch swap wall:";
    for (double ms : stats.plan_swap_ms) {
      std::cout << " " << fmt_f(ms, 4);
    }
    std::cout << " ms\n";
  }
  if (stats.completed == stats.submitted) {
    std::cout << "\nall " << stats.submitted << " requests served across "
              << stats.switches << " pattern-set switches — none lost.\n";
  } else if (stats.shed + stats.rejected > 0 &&
             stats.completed + stats.shed + stats.rejected ==
                 stats.submitted) {
    std::cout << "\n" << stats.shed << " hopeless requests shed and "
              << stats.rejected
              << " rejected at ingress (infeasible deadlines); the rest "
              << "served.\n";
  } else {
    std::cout << "\nbattery died mid-session: " << stats.dropped
              << " requests dropped (accounted above).\n";
  }
  ObsOutputs obs;
  obs.trace = obs_flags.trace_path.empty() ? nullptr : &trace;
  obs.trace_path = obs_flags.trace_path;
  obs.metrics = obs_flags.metrics_path.empty() ? nullptr : &metrics;
  obs.metrics_path = obs_flags.metrics_path;
  obs.metrics_format = obs_flags.metrics_format;
  obs.telemetry = obs_flags.telemetry_path.empty() ? nullptr : &telemetry;
  obs.telemetry_path = obs_flags.telemetry_path;
  obs.slo = obs_flags.slo ? &slo : nullptr;
  report_observability(obs, obs.trace != nullptr ? &trace : nullptr);
  return 0;
}

int cmd_node(const std::vector<std::string>& args) {
  reject_unknown_flags(
      args,
      flag_union({kSessionFlags, kTrafficFlags, kObsFlags, {"--models"}}),
      "rt3 node");
  ServeSessionConfig scfg = parse_session_config(args);
  TrafficConfig tcfg = parse_traffic_config(args);
  tcfg.num_models = arg_int(args, "--models", 3);
  const ObsFlags obs_flags = parse_obs_flags(args);

  const std::vector<Request> schedule = generate_traffic(tcfg);
  NodeSession session(scfg, tcfg.num_models);
  TraceRecorder trace(
      TraceConfig{/*record_wall=*/true, obs_flags.max_trace_events});
  MetricsRegistry metrics;
  TelemetryConfig telemetry_cfg;
  telemetry_cfg.sample_every_batches = obs_flags.sample_every;
  TelemetrySampler telemetry(telemetry_cfg);
  SloMonitor slo(SloMonitor::default_rules());
  if (!obs_flags.trace_path.empty()) {
    session.node().set_trace(&trace);
  }
  if (!obs_flags.metrics_path.empty()) {
    session.node().set_metrics(&metrics);
  }
  if (!obs_flags.telemetry_path.empty()) {
    session.node().set_telemetry(&telemetry);
  }
  if (obs_flags.slo) {
    session.node().set_slo(&slo);
  }
  std::cout << "node: " << tcfg.num_models
            << " backbone-resident models behind ONE "
            << fmt_f(scfg.battery_capacity_mj, 0)
            << " mJ battery and governor; " << schedule.size()
            << " requests (" << traffic_scenario_name(tcfg.scenario) << ", "
            << fmt_f(tcfg.rate_rps, 1) << " req/s mean across models, "
            << fmt_f(tcfg.duration_ms / 1000.0, 0) << " s), T = "
            << fmt_f(scfg.timing_constraint_ms, 0) << " ms, batch <= "
            << scfg.batch.max_batch_size << " per model, "
            << scheduling_policy_name(scfg.scheduler.policy) << " policy"
            << (scfg.shed_expired ? ", shedding" : "")
            << (scfg.admit_feasible ? ", feasibility admission" : "")
            << "\n\n";
  const NodeStats stats = session.node().serve(schedule);
  std::cout << stats.summary();
  if (stats.completed + stats.shed + stats.rejected == stats.submitted &&
      stats.dropped == 0) {
    std::cout << "\nevery routed request was served"
              << (stats.shed + stats.rejected > 0 ? " or consciously "
                                                    "shed/rejected"
                                                  : "")
              << "; one battery step-down reconfigured all "
              << tcfg.num_models << " models at the same batch boundary.\n";
  } else {
    std::cout << "\nbattery died mid-session: " << stats.dropped
              << " requests dropped (accounted per model above).\n";
  }
  ObsOutputs obs;
  obs.trace = obs_flags.trace_path.empty() ? nullptr : &trace;
  obs.trace_path = obs_flags.trace_path;
  obs.metrics = obs_flags.metrics_path.empty() ? nullptr : &metrics;
  obs.metrics_path = obs_flags.metrics_path;
  obs.metrics_format = obs_flags.metrics_format;
  obs.telemetry = obs_flags.telemetry_path.empty() ? nullptr : &telemetry;
  obs.telemetry_path = obs_flags.telemetry_path;
  obs.slo = obs_flags.slo ? &slo : nullptr;
  report_observability(obs, obs.trace != nullptr ? &trace : nullptr);
  return 0;
}

/// Offline kernel autotuning over the canonical serve session's measured
/// backend: search winners are written as a TuningRecord text file that
/// `rt3 serve --tuning` bakes back into the plan cache.  With --load the
/// search is skipped and an existing record is applied + re-serialized,
/// which doubles as the format round-trip check in CI.
int cmd_tune(const std::vector<std::string>& args) {
  reject_unknown_flags(
      args,
      flag_union({kSessionFlags,
                  {"--out", "--load", "--repeats", "--tune-batch"}}),
      "rt3 tune");
  ServeSessionConfig scfg = parse_session_config(args);
  scfg.backend = ExecBackendKind::kMeasured;
  const std::string out = arg_string(args, "--out", "rt3_tuning.txt");
  const std::string load = arg_string(args, "--load", "");

  ServeSession session(scfg);
  MeasuredBackend& backend = session.measured_backend();

  if (!load.empty()) {
    const TuningRecord record = TuningRecord::load(load);
    const std::int64_t applied = backend.apply_tuning(record);
    record.save(out);
    std::cout << "loaded " << load << ": " << record.entries.size()
              << " entries (" << exec_mode_name(record.mode) << ", tuned "
              << "under " << record.isa << "), " << applied
              << " applied, re-serialized -> " << out << "\n";
    return 0;
  }

  TunerConfig tcfg;
  tcfg.repeats = arg_int(args, "--repeats", 3);
  tcfg.batch = arg_int(args, "--tune-batch", 1);
  const PlanCache& plans = backend.plans();
  std::cout << "tuning " << plans.num_layers() << " layers x "
            << plans.num_levels() << " levels ("
            << exec_mode_name(plans.mode()) << " kernels, "
            << simd_isa_name(active_simd_isa()) << " ISA): "
            << Autotuner::candidate_grid(plans.mode()).size()
            << " candidates per cell, median of " << tcfg.repeats << "\n\n";
  Autotuner tuner(tcfg, backend);
  const TuningRecord record = tuner.tune();
  record.save(out);

  TablePrinter t({"layer", "level", "k_tile", "measured (ms)"});
  for (const TuningEntry& e : record.entries) {
    t.add_row({std::to_string(e.layer), std::to_string(e.level),
               std::to_string(e.options.k_tile), fmt_f(e.measured_ms, 4)});
  }
  std::cout << t.str() << "\nwrote " << record.entries.size()
            << " entries -> " << out << "\n";
  return 0;
}

/// Offline training of the learned runtime governor: REINFORCE episodes
/// over full seeded serving sessions, trained weights written as an
/// "rt3-governor v1" text artifact for `rt3 serve --governor-policy`.
/// With --load the training is skipped and an existing artifact is
/// re-serialized, which doubles as the format round-trip check in CI.
int cmd_train_governor(const std::vector<std::string>& args) {
  reject_unknown_flags(
      args,
      flag_union({kSessionFlags, kTrafficFlags,
                  {"--out", "--load", "--episodes", "--hidden", "--lr",
                   "--governor-seed", "--sample-seed"}}),
      "rt3 train-governor");
  const std::string out = arg_string(args, "--out", "rt3_governor.txt");
  const std::string load = arg_string(args, "--load", "");

  if (!load.empty()) {
    const std::shared_ptr<RlGovernorPolicy> policy = RlGovernorPolicy::load(
        load, Governor::equal_tranches(paper_serve_ladder()));
    policy->save(out);
    std::cout << "loaded " << load << ": hidden "
              << policy->config().hidden_dim << ", "
              << policy->num_levels()
              << " ladder rungs, re-serialized -> " << out << "\n";
    return 0;
  }

  GovernorTrainConfig tcfg;
  tcfg.episodes = arg_int(args, "--episodes", 30);
  tcfg.policy.hidden_dim = arg_int(args, "--hidden", 16);
  tcfg.policy.learning_rate =
      static_cast<float>(arg_double(args, "--lr", 5e-3));
  tcfg.policy.seed =
      static_cast<std::uint64_t>(arg_int(args, "--governor-seed", 11));
  tcfg.sample_seed =
      static_cast<std::uint64_t>(arg_int(args, "--sample-seed", 1234));
  tcfg.session = parse_session_config(args);
  tcfg.traffic = parse_traffic_config(args);
  tcfg.traffic_seed = tcfg.traffic.seed;
  // Surviving the whole arrival process earns full lifetime credit.
  tcfg.reward.reference_lifetime_ms = tcfg.traffic.duration_ms;

  std::cout << "training the rl governor: " << tcfg.episodes
            << " episodes over " << fmt_f(tcfg.session.battery_capacity_mj, 0)
            << " mJ / " << fmt_f(tcfg.traffic.duration_ms / 1000.0, 0)
            << " s sessions (steady/burst/diurnal round-robin, "
            << fmt_f(tcfg.traffic.rate_rps, 1) << " req/s), hidden "
            << tcfg.policy.hidden_dim << ", lr "
            << tcfg.policy.learning_rate << "\n\n";
  const GovernorTrainResult result = train_governor(tcfg);

  TablePrinter t({"episode", "reward", "advantage", "miss rate"});
  for (std::size_t e = 0; e < result.rewards.size(); ++e) {
    t.add_row({std::to_string(e), fmt_f(result.rewards[e], 4),
               fmt_f(result.advantages[e], 4),
               fmt_pct(result.miss_rates[e])});
  }
  std::cout << t.str();
  result.policy->save(out);
  std::cout << "\nwrote trained governor -> " << out
            << "  (serve with: rt3 serve --governor-policy " << out << ")\n";
  return 0;
}

/// Thin wrapper shelling out to tools/report.py: renders a session's
/// telemetry series + SLO breaches + miss attribution into a terminal
/// summary and/or a self-contained HTML report.
int cmd_report(const std::vector<std::string>& args) {
  std::string script;
  for (const char* candidate : {"tools/report.py", "../tools/report.py"}) {
    if (std::ifstream(candidate).good()) {
      script = candidate;
      break;
    }
  }
  if (script.empty()) {
    std::cerr << "rt3 report: cannot find tools/report.py (run from the "
                 "repo root or the build directory)\n";
    return 2;
  }
  std::string cmd = "python3 " + script;
  for (const std::string& a : args) {
    // POSIX single-quote escaping so paths with spaces survive.
    std::string quoted = "'";
    for (const char c : a) {
      if (c == '\'') {
        quoted += "'\\''";
      } else {
        quoted += c;
      }
    }
    quoted += "'";
    cmd += " " + quoted;
  }
  const int rc = std::system(cmd.c_str());
  return rc == 0 ? 0 : 1;
}

int usage() {
  std::cout <<
      "usage: rt3 <command> [options]\n"
      "  search   [--t MS] [--episodes N] [--out FILE]  run the AutoML search\n"
      "  info     FILE                                  inspect a package\n"
      "  simulate [--capacity MJ] [--t MS]              discharge simulation\n"
      "  serve    [--scenario steady|burst|diurnal] [--backend analytic|measured]\n"
      "           [--policy fifo|edf|edf-prio] [--classes N] [--prio-weight MS]\n"
      "           [--aging R] [--governor ladder|adaptive|rl]\n"
      "           [--governor-policy FILE] [--governor-margin F]\n"
      "           [--governor-batch N]\n"
      "           [--capacity MJ] [--t MS] [--rate RPS] [--duration MS]\n"
      "           [--slack MS] [--batch N] [--wait MS] [--threads N] [--shed]\n"
      "           [--jitter F] [--tight-frac F] [--tight-slack MS]\n"
      "           [--tuning FILE] [--admit] [--seed S] [--trace FILE]\n"
      "           [--max-trace-events N] [--metrics FILE]\n"
      "           [--metrics-format json|prom] [--telemetry FILE]\n"
      "           [--sample-every N] [--slo]\n"
      "                                 (flags accept --flag=value too;\n"
      "                                 an unlisted flag is an error)\n"
      "                                                 battery-aware serving\n"
      "  node     [--models N] + every serve flag but --tuning\n"
      "                                                 multi-model node:\n"
      "                                 N models, ONE battery/governor,\n"
      "                                 model-id routing + admission\n"
      "  tune     [--out FILE] [--load FILE] [--repeats N] [--tune-batch N]\n"
      "           + session flags                       autotune kernels and\n"
      "                                 write a tuning record for --tuning\n"
      "  train-governor [--episodes N] [--hidden N] [--lr F] [--out FILE]\n"
      "           [--load FILE] [--governor-seed S] [--sample-seed S] +\n"
      "           session/traffic flags          train the learned runtime\n"
      "                                 governor; serve it with --governor rl\n"
      "                                 --governor-policy FILE\n"
      "  report   [--trace F] [--telemetry F] [--metrics F] [--out F.html]\n"
      "                                                 render a session report\n"
      "  levels                                         print the V/F ladder\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    return usage();
  }
  const std::string cmd = argv[1];
  // Accept both "--flag value" and "--flag=value" (shared helper, also
  // used by the bench executables).
  const std::vector<std::string> args = split_flag_args(argc, argv, 2);
  try {
    if (cmd == "levels") {
      reject_unknown_flags(args, {}, "rt3 levels");
      return cmd_levels();
    }
    if (cmd == "info") {
      reject_unknown_flags(args, {}, "rt3 info");
      if (args.empty()) {
        return usage();
      }
      return cmd_info(args[0]);
    }
    if (cmd == "search") {
      return cmd_search(args);
    }
    if (cmd == "simulate") {
      return cmd_simulate(args);
    }
    if (cmd == "serve") {
      return cmd_serve(args);
    }
    if (cmd == "node") {
      return cmd_node(args);
    }
    if (cmd == "tune") {
      return cmd_tune(args);
    }
    if (cmd == "train-governor") {
      return cmd_train_governor(args);
    }
    if (cmd == "report") {
      return cmd_report(args);
    }
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  return usage();
}
