// Battery-aware serving demo: the same bursty traffic served twice over
// identical batteries —
//   A. hardware-only reconfiguration (DVFS steps down, same sub-model):
//      every request at the slower levels blows the deadline;
//   B. RT3 (DVFS + pattern-set switching between batches): the engine
//      swaps to a sparser sub-model when the governor steps down, so the
//      deadline holds across the whole discharge and nothing is lost.
// Then the multi-model front-end (serve/node.hpp):
//   C. three backbone-resident models behind ONE battery and governor,
//      requests routed by model id; a single battery step-down
//      drain-then-switches every resident model at the same batch
//      boundary, and per-model stats roll up into the node totals.
// This is the serving-system version of the battery_sim example.
//
// Usage: server_demo [analytic|measured] [fifo|edf|edf-prio]
//   analytic (default) models batch latency with the calibrated
//   LatencyModel; measured actually runs the pruned layers as kernels and
//   lets wall time drive the virtual clock.  The second argument picks the
//   RT3 session's scheduling policy (default fifo).
#include <iostream>
#include <string>

#include "common/table.hpp"
#include "exec/backend.hpp"
#include "serve/policy.hpp"
#include "serve/server.hpp"
#include "serve/session.hpp"
#include "serve/traffic.hpp"

int main(int argc, char** argv) {
  using namespace rt3;
  const ExecBackendKind backend =
      exec_backend_from_name(argc > 1 ? argv[1] : "analytic");
  const SchedulingPolicy policy =
      scheduling_policy_from_name(argc > 2 ? argv[2] : "fifo");
  std::cout << "RT3 serving demo: bursty traffic along a draining battery\n"
            << "========================================================="
            << "\nexecution backend: " << exec_backend_name(backend)
            << ", scheduling policy: " << scheduling_policy_name(policy)
            << "\n\n";

  TrafficConfig tcfg;
  tcfg.scenario = TrafficScenario::kBurst;
  tcfg.rate_rps = 3.0;
  tcfg.duration_ms = 60'000.0;
  // Mixed interactive/background deadlines (the bench's workload): with
  // one uniform slack, deadline order degenerates to arrival order and
  // the policy argument would be invisible.
  tcfg.deadline_slack_ms = 1'000.0;
  tcfg.tight_fraction = 0.3;
  tcfg.tight_slack_ms = 350.0;
  const std::vector<Request> schedule = generate_traffic(tcfg);
  std::cout << schedule.size() << " requests over "
            << fmt_f(tcfg.duration_ms / 1000.0, 0)
            << " s; 30% interactive (deadline = arrival + "
            << fmt_f(tcfg.tight_slack_ms, 0) << " ms), the rest background ("
            << fmt_f(tcfg.deadline_slack_ms, 0) << " ms slack)\n\n";

  ServeSessionConfig hw_only;
  hw_only.software_reconfig = false;
  hw_only.backend = backend;
  ServeSession a(hw_only);
  const ServerStats sa = a.server().serve(schedule);

  ServeSessionConfig rt3_cfg;  // software_reconfig = true
  rt3_cfg.backend = backend;
  rt3_cfg.scheduler.policy = policy;
  ServeSession b(rt3_cfg);
  const ServerStats sb = b.server().serve(schedule);

  TablePrinter t({"strategy", "served", "dropped", "p99 (ms)", "miss rate",
                  "switches", "energy (mJ)"});
  t.add_row({"A: DVFS only", std::to_string(sa.completed),
             std::to_string(sa.dropped), fmt_f(sa.latency_percentile(99.0), 1),
             fmt_pct(sa.miss_rate()), std::to_string(sa.switches),
             fmt_f(sa.energy_used_mj, 0)});
  t.add_row({"B: DVFS + RT3", std::to_string(sb.completed),
             std::to_string(sb.dropped), fmt_f(sb.latency_percentile(99.0), 1),
             fmt_pct(sb.miss_rate()), std::to_string(sb.switches),
             fmt_f(sb.energy_used_mj, 0)});
  std::cout << t.str() << "\nRT3 session detail:\n" << sb.summary();

  std::cout << "\nWith hardware-only reconfiguration the fixed sub-model "
               "breaks the per-\ninference deadline as soon as the governor "
               "leaves F-mode; RT3 drains the\nin-flight batch, swaps the "
               "pattern set in milliseconds, and keeps the\nsub-model inside "
               "T at every level, so only burst-queueing tails miss\n(paper "
               "Tables II/III).\n";

  // C: the multi-model node — three NLP services resident on one phone,
  // one battery, one governor; the same mean load split across them.
  std::cout << "\nC: multi-model node (3 models, ONE battery/governor)\n"
            << "----------------------------------------------------\n";
  TrafficConfig ncfg = tcfg;
  ncfg.num_models = 3;
  const std::vector<Request> node_schedule = generate_traffic(ncfg);
  ServeSessionConfig per_model;
  per_model.backend = backend;
  per_model.scheduler.policy = policy;
  NodeSession node_session(per_model, ncfg.num_models);
  const NodeStats nstats = node_session.node().serve(node_schedule);
  std::cout << nstats.summary()
            << "\nEvery model switched at the same drain boundaries ("
            << nstats.switches << " switches = " << ncfg.num_models
            << " models x " << nstats.model(0).switches
            << " step-downs): the shared governor never leaves a resident\n"
               "model running a sub-model the new V/F level cannot "
               "afford.\n";
  return 0;
}
