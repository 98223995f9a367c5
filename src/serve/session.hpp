// Canonical serve-session setup over the paper's {l6, l4, l3} ladder:
// bundles a Server with a LIVE ReconfigEngine (real backbone masks over
// resident Linear layers, one pattern set per level) so the CLI, the
// traffic bench, and the demo all exercise the same end-to-end path —
// battery -> governor -> drain -> pattern-set switch -> keep serving.
//
// The latency model is `paper_transformer_latency()` (the Table II
// anchor, perf/latency_model.hpp) and per-level sparsities are
// chosen to just meet the timing constraint at each frequency, exactly
// like `rt3 simulate`.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "exec/backend.hpp"
#include "exec/measured_backend.hpp"
#include "nn/linear.hpp"
#include "pruning/model_pruner.hpp"
#include "runtime/engine.hpp"
#include "serve/governor_policy.hpp"
#include "serve/node.hpp"
#include "serve/server.hpp"

namespace rt3 {

/// Which GovernorPolicy family a session serves under.
enum class GovernorKind : std::uint8_t { kLadder, kAdaptive, kRl };

/// "ladder" / "adaptive" / "rl" (throws CheckError otherwise).
GovernorKind governor_kind_from_name(const std::string& name);
std::string governor_kind_name(GovernorKind kind);

/// The serving ladder {l6, l4, l3} (F -> N -> E), paper Table II.
const std::vector<std::int64_t>& paper_serve_ladder();

/// Per-ladder-level sparsities that just meet `timing_constraint_ms` at
/// each frequency (never below the 64.26% backbone floor).
std::vector<double> paper_ladder_sparsities(const LatencyModel& latency,
                                            double timing_constraint_ms);

struct ServeSessionConfig {
  double battery_capacity_mj = 12'000.0;
  /// Per-level timing constraint T; also sizes the per-level sparsities.
  double timing_constraint_ms = 115.0;
  /// Inference MACs serialize on the single mobile core, so a batch of B
  /// costs ~B*T; max_batch_size 2 keeps batch latency inside a ~350 ms
  /// deadline slack while still amortizing the fixed runtime cost.
  BatchPolicy batch{2, 20.0};
  /// Batch-composition order (fifo / edf / edf-prio; see serve/policy.hpp).
  SchedulerConfig scheduler;
  /// Governor-aware batching margin (battery fraction above the next
  /// step-down threshold inside which batches shrink); 0 disables.
  double governor_margin = 0.0;
  /// Batch cap applied inside the governor margin.
  std::int64_t governor_shrink_batch = 1;
  /// false = hardware-only baseline: fixed sub-model, no engine, kBlock.
  bool software_reconfig = true;
  /// analytic = modeled batch latency (historical path); measured = the
  /// pruned layers actually run as kernels and wall time drives the clock.
  ExecBackendKind backend = ExecBackendKind::kAnalytic;
  /// Measured-backend sizing: the resident demo backbone grows to
  /// `measured_layers` square layers of side `measured_layer_dim` so
  /// kernel times are measurable.
  std::int64_t measured_layers = 3;
  std::int64_t measured_layer_dim = 64;
  /// Kernel pool workers (MeasuredBackendConfig::threads).
  std::int64_t measured_threads = MeasuredBackendConfig::default_threads();
  /// Drop requests whose deadline is already blown before they occupy a
  /// batch slot (ServerStats::shed).
  bool shed_expired = false;
  /// Reject ingress requests whose deadline is infeasible even for an
  /// immediate solo launch (ServerStats::rejected, `rt3 serve --admit`).
  bool admit_feasible = false;
  /// Governor family deciding levels: the static ladder (historical,
  /// bit-identical default), the adaptive-margin controller, or the
  /// learned RL governor.  kRl requires `governor_policy` (a trained
  /// artifact: `rt3 train-governor`, RlGovernorPolicy::load).
  GovernorKind governor = GovernorKind::kLadder;
  /// Explicit policy instance; overrides `governor` when set.  A
  /// NodeSession shares the ONE instance across every shard; its ladder
  /// must match the paper serve ladder's level count.
  std::shared_ptr<GovernorPolicy> governor_policy;
  std::uint64_t seed = 11;
};

/// Owns one model's full serving stack — demo backbone layers, pruner,
/// pattern sets — and the Server shard built from it via ModelDeployment
/// (the Server owns its engine and backend; the session keeps views).
class ServeSession {
 public:
  explicit ServeSession(const ServeSessionConfig& config);

  Server& server() { return *server_; }
  /// Only present with software_reconfig (throws on the hw-only baseline).
  ReconfigEngine& engine();
  bool has_engine() const { return engine_ != nullptr; }
  /// Only present with backend == kMeasured (throws otherwise).
  MeasuredBackend& measured_backend();
  bool has_measured_backend() const { return measured_ != nullptr; }
  const std::vector<double>& sparsities() const { return sparsities_; }

 private:
  // rt3-lint: allow(missing-seed) seeded from config.seed in every ctor
  Rng rng_;
  std::vector<std::unique_ptr<Linear>> owned_layers_;
  std::vector<Linear*> layers_;
  std::unique_ptr<ModelPruner> pruner_;
  std::vector<double> sparsities_;
  std::unique_ptr<Server> server_;
  /// Views into the server-owned engine/backend (nullptr when absent).
  ReconfigEngine* engine_ = nullptr;
  MeasuredBackend* measured_ = nullptr;
};

/// Canonical multi-model node over the paper ladder: `num_models`
/// resident models — independently seeded backbones and pattern sets,
/// identical timing constraint — each deployed through ModelDeployment
/// onto ONE ServeNode sharing one battery and one governor.  This is the
/// setup behind `rt3 node`, the node bench cells, and the node demo.
class NodeSession {
 public:
  /// `per_model` configures every deployment (its seed offsets by the
  /// model id, so resident backbones differ per model).
  NodeSession(const ServeSessionConfig& per_model, std::int64_t num_models);
  ~NodeSession();

  ServeNode& node() { return *node_; }
  std::int64_t num_models() const { return node_->num_models(); }

 private:
  /// One model's backbone-resident state (referenced by its shard's
  /// engine, so it must outlive the node).
  struct Resident;
  std::vector<std::unique_ptr<Resident>> residents_;
  std::unique_ptr<ServeNode> node_;
};

}  // namespace rt3
