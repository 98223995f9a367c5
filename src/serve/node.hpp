// Multi-model serving front-end: several backbone-resident models behind
// ONE battery and ONE governor on one device — the phone hosting multiple
// NLP services the paper targets.
//
// Two pieces compose the node:
//
//   ModelDeployment — fluent builder for one model's serving machinery:
//       ModelDeployment()
//           .config(server_cfg)            // batching / scheduler / admission
//           .spec(model_spec)
//           .latency(latency_model)
//           .sparsities({s0, s1, s2})      // one per governor level
//           .engine(std::move(engine))     // OWNED by the built shard
//           .backend(std::move(backend))   // OWNED by the built shard
//       Building yields a per-model Server shard that owns its engine and
//       backend; the shared GovernorHandle passed to build() decides the
//       shard's levels (see serve/governor_policy.hpp).
//
//   ModelRegistry — model id -> owned Server shard, ids kept ascending so
//       every per-shard iteration order (routing, switching, stats) is
//       deterministic.
//
// ServeNode drives all shards through the one serving loop
// (serve/serve_loop.hpp: routing, admission, batching, drain-then-switch)
// against the shared battery.  Server::serve runs the same loop with
// itself as the only shard, so a node with one registered model
// reproduces Server::serve bit-for-bit by construction.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "dvfs/dvfs.hpp"
#include "serve/server.hpp"
#include "serve/stats.hpp"

namespace rt3 {

/// Builder for one model's deployment onto a node (or a standalone
/// Server).  Engine and backend handed to the builder are OWNED by the
/// Server it builds.
class ModelDeployment {
 public:
  ModelDeployment() = default;

  /// Full per-model server configuration (batching, shedding, admission,
  /// governor-aware batching, switch costs).
  ModelDeployment& config(const ServerConfig& config);
  ModelDeployment& spec(const ModelSpec& spec);
  ModelDeployment& latency(const LatencyModel& latency);
  /// One overall-model sparsity per governor level (fast -> slow).
  ModelDeployment& sparsities(std::vector<double> sparsities);
  /// Live ReconfigEngine for this model; ownership transfers to the shard.
  ModelDeployment& engine(std::unique_ptr<ReconfigEngine> engine);
  /// Execution backend for this model; ownership transfers to the shard.
  ModelDeployment& backend(std::unique_ptr<ExecutionBackend> backend);

  /// Builds the per-model Server shard over the (shared) table, governor
  /// policy and power model, adopting the deployment's engine and backend.
  /// Consumes the deployment (rvalue-only: ownership moves out).  A plain
  /// Governor converts to the default LadderPolicy; shards built from the
  /// same handle SHARE one policy instance.
  std::unique_ptr<Server> build(const VfTable& table,
                                const GovernorHandle& governor,
                                const PowerModel& power) &&;

 private:
  ServerConfig config_;
  ModelSpec spec_ = ModelSpec::paper_transformer();
  LatencyModel latency_;
  std::vector<double> sparsities_;
  std::unique_ptr<ReconfigEngine> engine_;
  std::unique_ptr<ExecutionBackend> backend_;
};

/// Model id -> owned per-model Server shard, ids ascending.
class ModelRegistry {
 public:
  /// Registers a shard (throws CheckError on a duplicate id).
  Server& add(std::int64_t model_id, std::unique_ptr<Server> shard);

  /// The shard serving `model_id`, or nullptr when unknown.
  Server* find(std::int64_t model_id) const;

  /// Registered ids, ascending — the canonical per-shard iteration order.
  const std::vector<std::int64_t>& ids() const { return ids_; }
  std::int64_t size() const { return static_cast<std::int64_t>(ids_.size()); }

 private:
  std::vector<std::int64_t> ids_;
  std::vector<std::unique_ptr<Server>> shards_;  // parallel to ids_
};

struct NodeConfig {
  /// The ONE battery budget every resident model draws from.
  double battery_capacity_mj = 12'000.0;
};

/// Multi-model serving node: per-model Server shards behind one shared
/// battery/governor, driven on one virtual clock.
class ServeNode {
 public:
  /// `governor` accepts a plain Governor (default LadderPolicy) or any
  /// shared GovernorPolicy; every shard added to this node shares it.
  ServeNode(NodeConfig config, VfTable table, GovernorHandle governor,
            PowerModel power);

  /// Builds the deployment into a shard and registers it under
  /// `model_id`.  Every deployment's sparsities must match the shared
  /// governor's ladder.  Returns the built shard.
  Server& add_model(std::int64_t model_id, ModelDeployment deployment);

  const ModelRegistry& registry() const { return registry_; }
  /// The shard serving `model_id` (throws CheckError when unknown).
  Server& model(std::int64_t model_id);
  std::int64_t num_models() const { return registry_.size(); }
  /// The shared battery, as the last session left it.
  const Battery& battery() const { return battery_; }

  /// Runs one full node session over a pre-generated arrival schedule
  /// (sorted by arrival time; requests carry model ids).  Deterministic.
  NodeStats serve(const std::vector<Request>& schedule);

  /// Session observers (see SessionObservers); nullptr detaches.
  /// metrics receives NodeStats::publish.  One SLO monitor watches the
  /// whole node, whichever model the misses come from.
  void set_trace(TraceRecorder* trace) { observers_.trace = trace; }
  void set_metrics(MetricsRegistry* metrics) { observers_.metrics = metrics; }
  void set_telemetry(TelemetrySampler* telemetry) {
    observers_.telemetry = telemetry;
  }
  void set_slo(SloMonitor* slo) { observers_.slo = slo; }

 private:
  NodeConfig config_;
  VfTable table_;
  GovernorHandle governor_;
  PowerModel power_;
  Battery battery_;
  ModelRegistry registry_;
  SessionObservers observers_;
};

}  // namespace rt3
