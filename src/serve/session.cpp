#include "serve/session.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "pruning/pattern_prune.hpp"

namespace rt3 {

const std::vector<std::int64_t>& paper_serve_ladder() {
  static const std::vector<std::int64_t> ladder = {5, 3, 2};  // F -> N -> E
  return ladder;
}

GovernorKind governor_kind_from_name(const std::string& name) {
  if (name == "ladder") {
    return GovernorKind::kLadder;
  }
  if (name == "adaptive") {
    return GovernorKind::kAdaptive;
  }
  if (name == "rl") {
    return GovernorKind::kRl;
  }
  throw CheckError("unknown governor kind: " + name +
                   " (expected ladder|adaptive|rl)");
}

std::string governor_kind_name(GovernorKind kind) {
  switch (kind) {
    case GovernorKind::kLadder: return "ladder";
    case GovernorKind::kAdaptive: return "adaptive";
    case GovernorKind::kRl: return "rl";
  }
  throw CheckError("governor_kind_name: bad enum value");
}

namespace {

/// The session's governor surface: the explicit policy instance when one
/// is configured, else a fresh policy of the configured kind over the
/// paper serve ladder.  kRl has no weights to invent here — it needs a
/// trained artifact.
GovernorHandle session_governor(const ServeSessionConfig& config) {
  Governor ladder = Governor::equal_tranches(paper_serve_ladder());
  if (config.governor_policy != nullptr) {
    check(config.governor_policy->num_levels() ==
              static_cast<std::int64_t>(ladder.levels().size()),
          "ServeSession: governor_policy ladder has " +
              std::to_string(config.governor_policy->num_levels()) +
              " levels, the paper serve ladder has " +
              std::to_string(ladder.levels().size()));
    return GovernorHandle(config.governor_policy);
  }
  switch (config.governor) {
    case GovernorKind::kLadder:
      return GovernorHandle(std::move(ladder));
    case GovernorKind::kAdaptive:
      return GovernorHandle(
          std::make_shared<AdaptiveMarginPolicy>(std::move(ladder)));
    case GovernorKind::kRl:
      throw CheckError(
          "ServeSession: the rl governor needs a trained policy "
          "(rt3 train-governor, then --governor-policy FILE)");
  }
  throw CheckError("ServeSession: bad governor kind");
}

}  // namespace

std::vector<double> paper_ladder_sparsities(const LatencyModel& latency,
                                            double timing_constraint_ms) {
  const VfTable table = VfTable::odroid_xu3_a7();
  const ModelSpec spec = ModelSpec::paper_transformer();
  std::vector<double> sparsities;
  for (std::int64_t li : paper_serve_ladder()) {
    const double tuned = latency.sparsity_for_latency(
        spec, ExecMode::kPattern, table.level(li).freq_mhz,
        timing_constraint_ms);
    sparsities.push_back(std::max(0.6426, tuned));
  }
  return sparsities;
}

ReconfigEngine& ServeSession::engine() {
  check(engine_ != nullptr,
        "ServeSession: hardware-only baseline has no ReconfigEngine");
  return *engine_;
}

MeasuredBackend& ServeSession::measured_backend() {
  check(measured_ != nullptr,
        "ServeSession: analytic session has no MeasuredBackend");
  return *measured_;
}

namespace {

/// Shared between ServeSession and NodeSession: builds one model's
/// deployment (config + analytic models + owned engine/backend) over the
/// caller-owned resident backbone.  `rng` drives weight init and pattern
/// sets, so differently-seeded callers get different resident models.
struct DeploymentParts {
  ModelDeployment deployment;
  ReconfigEngine* engine_view = nullptr;
  MeasuredBackend* measured_view = nullptr;
};

DeploymentParts make_paper_deployment(
    const ServeSessionConfig& config, Rng& rng,
    std::vector<std::unique_ptr<Linear>>& owned_layers,
    std::vector<Linear*>& layers, std::unique_ptr<ModelPruner>& pruner,
    const std::vector<double>& tuned_sparsities) {
  const VfTable table = VfTable::odroid_xu3_a7();
  const ModelSpec spec = ModelSpec::paper_transformer();
  const LatencyModel latency = paper_transformer_latency();
  const bool measured = config.backend == ExecBackendKind::kMeasured;

  ServerConfig scfg;
  scfg.battery_capacity_mj = config.battery_capacity_mj;
  scfg.batch = config.batch;
  scfg.scheduler = config.scheduler;
  scfg.governor_margin = config.governor_margin;
  scfg.governor_shrink_batch = config.governor_shrink_batch;
  scfg.software_reconfig = config.software_reconfig;
  scfg.shed_expired = config.shed_expired;
  scfg.admit_feasible = config.admit_feasible;
  scfg.exec_mode =
      config.software_reconfig ? ExecMode::kPattern : ExecMode::kBlock;
  const std::vector<double> served_sparsities =
      config.software_reconfig
          ? tuned_sparsities
          : std::vector<double>(paper_serve_ladder().size(), 0.6426);

  DeploymentParts parts;
  parts.deployment.config(scfg)
      .spec(spec)
      .latency(latency)
      .sparsities(served_sparsities);

  if (!config.software_reconfig && !measured) {
    return parts;  // hardware-only analytic baseline: no engine, no kernels
  }

  // Resident backbone with real masks; the analytic models carry the
  // paper-scale numbers, the engine carries the switch semantics.  The
  // measured backend needs enough MAC work per layer to time, so its
  // backbone is bigger than the 16 x 16 engine-only demo.
  const std::int64_t dim = measured ? config.measured_layer_dim : 16;
  const std::int64_t num_layers = measured ? config.measured_layers : 2;
  check(dim >= 8 && num_layers >= 1, "ServeSession: bad backbone sizing");
  for (std::int64_t i = 0; i < num_layers; ++i) {
    owned_layers.push_back(std::make_unique<Linear>(dim, dim, rng));
    layers.push_back(owned_layers.back().get());
  }
  pruner = std::make_unique<ModelPruner>(layers);
  BpConfig bp;
  bp.num_blocks = 4;
  bp.prune_fraction = 0.25;
  pruner->apply_bp(bp);
  std::vector<PatternSet> sets;
  for (double s : {0.25, 0.5, 0.75}) {  // denser set at faster level
    sets.push_back(random_pattern_set(4, s, 2, rng));
  }

  if (measured) {
    std::vector<double> freqs;
    for (std::int64_t li : paper_serve_ladder()) {
      freqs.push_back(table.level(li).freq_mhz);
    }
    MeasuredBackendConfig mcfg;
    mcfg.mode = config.software_reconfig ? ExecMode::kPattern
                                         : ExecMode::kBlock;
    mcfg.threads = config.measured_threads;
    mcfg.max_batch =
        std::max<std::int64_t>(64, config.batch.max_batch_size);
    const std::vector<PatternSet> level_sets =
        config.software_reconfig ? sets : std::vector<PatternSet>{};
    auto measured_backend = std::make_unique<MeasuredBackend>(
        mcfg, layers, pruner->backbone_masks(), level_sets,
        std::move(freqs));
    // Map a batch of 1 at the fastest level to ~80% of the timing
    // constraint, so the virtual session walks the same battery/deadline
    // regime as the calibrated analytic path.
    measured_backend->auto_scale(0.8 * config.timing_constraint_ms);
    parts.measured_view = measured_backend.get();
    parts.deployment.backend(std::move(measured_backend));
  }

  if (config.software_reconfig) {
    auto engine = std::make_unique<ReconfigEngine>(
        *pruner, std::move(sets), SwitchCostModel(), spec, 100);
    parts.engine_view = engine.get();
    parts.deployment.engine(std::move(engine));
  }
  return parts;
}

}  // namespace

ServeSession::ServeSession(const ServeSessionConfig& config)
    : rng_(config.seed) {
  sparsities_ = paper_ladder_sparsities(paper_transformer_latency(),
                                        config.timing_constraint_ms);
  DeploymentParts parts = make_paper_deployment(
      config, rng_, owned_layers_, layers_, pruner_, sparsities_);
  server_ = std::move(parts.deployment)
                .build(VfTable::odroid_xu3_a7(), session_governor(config),
                       PowerModel());
  engine_ = parts.engine_view;
  measured_ = parts.measured_view;
}

struct NodeSession::Resident {
  // rt3-lint: allow(missing-seed) seeded by the Resident(seed) init list
  Rng rng;
  std::vector<std::unique_ptr<Linear>> owned_layers;
  std::vector<Linear*> layers;
  std::unique_ptr<ModelPruner> pruner;
  explicit Resident(std::uint64_t seed) : rng(seed) {}
};

NodeSession::NodeSession(const ServeSessionConfig& per_model,
                         std::int64_t num_models) {
  check(num_models >= 1, "NodeSession: need at least one model");
  NodeConfig ncfg;
  ncfg.battery_capacity_mj = per_model.battery_capacity_mj;
  node_ = std::make_unique<ServeNode>(ncfg, VfTable::odroid_xu3_a7(),
                                      session_governor(per_model),
                                      PowerModel());
  const std::vector<double> sparsities = paper_ladder_sparsities(
      paper_transformer_latency(), per_model.timing_constraint_ms);
  for (std::int64_t m = 0; m < num_models; ++m) {
    ServeSessionConfig cfg = per_model;
    cfg.seed = per_model.seed + static_cast<std::uint64_t>(m);
    residents_.push_back(
        std::make_unique<Resident>(cfg.seed));
    Resident& resident = *residents_.back();
    DeploymentParts parts = make_paper_deployment(
        cfg, resident.rng, resident.owned_layers, resident.layers,
        resident.pruner, sparsities);
    node_->add_model(m, std::move(parts.deployment));
  }
}

NodeSession::~NodeSession() = default;

}  // namespace rt3
