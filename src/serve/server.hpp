// Battery-aware inference server with deadline-aware dynamic batching:
// ONE model's serving machinery (batcher, scheduler, engine, backend).
//
// serve() runs the one serving loop (serve/serve_loop.hpp) with this
// server as its only shard, model 0, on the server's own battery:
// requests arrive open-loop (see traffic.hpp), a Batcher forms batches
// under a max-size/max-wait policy, each batch executes at the V/F level
// the governor picks, and a level change drains the in-flight batch
// before the pattern-set switch.  Time is virtual (ms since session
// start), so a session is bit-reproducible and runs in milliseconds of
// host time.
//
// OWNERSHIP.  A Server OWNS its ReconfigEngine and ExecutionBackend when
// they are handed over via adopt_engine()/adopt_backend() — which is how
// a ModelDeployment (serve/node.hpp) wires a shard — so one object owns
// one model's full serving machinery.
//
// GOVERNOR.  The level decision at every decision point goes through a
// GovernorPolicy (serve/governor_policy.hpp), passed in as a
// GovernorHandle.  A plain Governor converts implicitly to the default
// LadderPolicy, which reproduces the historical threshold behaviour
// bit-for-bit; adaptive and learned policies plug in through the same
// handle.
//
// Several backbone-resident models on one device share one battery and
// one governor through the multi-model ServeNode (node.hpp), which runs
// the same loop over per-model Server shards.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "dvfs/dvfs.hpp"
#include "exec/analytic_backend.hpp"
#include "exec/backend.hpp"
#include "perf/latency_model.hpp"
#include "perf/model_spec.hpp"
#include "runtime/engine.hpp"
#include "serve/batcher.hpp"
#include "serve/governor_policy.hpp"
#include "serve/request.hpp"
#include "serve/serve_loop.hpp"
#include "serve/stats.hpp"

namespace rt3 {

struct ServerConfig {
  double battery_capacity_mj = 5e4;
  BatchPolicy batch;
  /// Batch-composition order: FIFO (the historical behaviour, default),
  /// EDF, or EDF with priority classes + aging (see serve/policy.hpp).
  SchedulerConfig scheduler;
  /// When false, only the V/F level changes with the battery (the paper's
  /// E2 baseline): the level-0 sub-model runs everywhere and no switch
  /// cost is paid.
  bool software_reconfig = true;
  /// Energy cost of one pattern-set switch (mJ).
  double switch_energy_mj = 0.5;
  ExecMode exec_mode = ExecMode::kPattern;
  /// Load shedding: drop a request once its deadline is already blown,
  /// before it occupies a batch slot (counted in ServerStats::shed).
  bool shed_expired = false;
  /// Feasibility-based admission: reject a request at ingress when its
  /// deadline lies inside now + batch_latency(1, level) — not even an
  /// immediate solo launch could meet it, so admitting it can only blow
  /// other deadlines too (the EDF domino under sustained overload).
  /// Counted in ServerStats::rejected, separately from shed.
  bool admit_feasible = false;
  /// Governor-aware batching: while the battery fraction sits within this
  /// margin above the governor's next step-down threshold, batches are
  /// capped at governor_shrink_batch so the in-flight work drains — and
  /// the drain-then-switch point arrives — sooner.  0 disables.
  double governor_margin = 0.0;
  /// Batch cap applied inside the governor margin (clamped to
  /// [1, batch.max_batch_size]).
  std::int64_t governor_shrink_batch = 1;
};

class Server {
 public:
  /// `sparsities[i]` is the overall model sparsity of the sub-model for
  /// governor-level position i (fast -> slow, one per governor level).
  /// `governor` accepts a plain Governor (wrapped in the default
  /// LadderPolicy) or any shared GovernorPolicy.
  Server(ServerConfig config, VfTable table, GovernorHandle governor,
         PowerModel power, const LatencyModel& latency, const ModelSpec& spec,
         const std::vector<double>& sparsities);

  /// Takes ownership of a live ReconfigEngine (the deployment path):
  /// level switches then install the engine's pre-composed real masks and
  /// use its modeled switch latency.  One pattern set per governor level
  /// required.
  void adopt_engine(std::unique_ptr<ReconfigEngine> engine);

  /// Takes ownership of an execution backend (the deployment path);
  /// nullptr restores the built-in AnalyticBackend.  The backend's
  /// run_batch drives batch latency and its activate_level is called at
  /// every drain-then-switch point (and once at session start).
  void adopt_backend(std::unique_ptr<ExecutionBackend> backend);

  const ExecutionBackend& backend() const { return *backend_; }
  /// Mutable backend access for drivers that execute batches themselves
  /// (the serving loop).
  ExecutionBackend& exec_backend() { return *backend_; }
  /// The engine switched at drain-then-switch points (nullptr when the
  /// session runs without one).
  ReconfigEngine* reconfig_engine() { return engine_.get(); }

  /// Session observers (see SessionObservers); nullptr detaches.
  /// metrics receives ServerStats::publish under {policy, backend} labels.
  void set_trace(TraceRecorder* trace) { observers_.trace = trace; }
  void set_metrics(MetricsRegistry* metrics) { observers_.metrics = metrics; }
  void set_telemetry(TelemetrySampler* telemetry) {
    observers_.telemetry = telemetry;
  }
  void set_slo(SloMonitor* slo) { observers_.slo = slo; }

  /// Runs one full session over a pre-generated arrival schedule
  /// (sorted by arrival time; every request for model 0, else CheckError).
  /// Deterministic.
  ServerStats serve(const std::vector<Request>& schedule);

  /// ANALYTIC latency of one batch at a governor-level position: the fixed
  /// per-inference runtime cost is paid once, the MAC cost per request.
  /// This is the built-in AnalyticBackend's formula regardless of which
  /// backend is attached (kept as the modeled reference).
  double batch_latency_ms(std::int64_t batch_size,
                          std::int64_t level_pos) const;

  const ServerConfig& config() const { return config_; }
  const Battery& battery() const { return battery_; }

 private:
  ServerConfig config_;
  VfTable table_;
  GovernorHandle governor_;
  PowerModel power_;
  Battery battery_;
  /// Engine/backend storage for the owned-deployment path.
  std::unique_ptr<ReconfigEngine> engine_;
  std::unique_ptr<ExecutionBackend> owned_backend_;
  /// Built-in analytic path; backend_ points here unless one is adopted.
  std::unique_ptr<AnalyticBackend> analytic_;
  ExecutionBackend* backend_ = nullptr;
  SessionObservers observers_;
};

}  // namespace rt3
