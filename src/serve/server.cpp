#include "serve/server.hpp"

#include <string>

#include "common/check.hpp"
#include "obs/metrics.hpp"
#include "serve/serve_loop.hpp"

namespace rt3 {

Server::Server(ServerConfig config, VfTable table, GovernorHandle governor,
               PowerModel power, const LatencyModel& latency,
               const ModelSpec& spec, const std::vector<double>& sparsities)
    : config_(config),
      table_(std::move(table)),
      governor_(std::move(governor)),
      power_(power),
      battery_(config.battery_capacity_mj) {
  const Governor& ladder = governor_.ladder();
  check(sparsities.size() == ladder.levels().size(),
        "Server: one sparsity per governor level required");
  check(config_.governor_margin >= 0.0 && config_.governor_margin < 1.0,
        "Server: governor_margin out of [0, 1)");
  check(config_.governor_shrink_batch >= 1,
        "Server: governor_shrink_batch must be >= 1");
  Batcher policy_probe(config_.batch,
                       config_.scheduler);  // reject a bad policy up front
  std::vector<double> freqs;
  std::vector<double> effective_sparsities;
  for (std::size_t i = 0; i < ladder.levels().size(); ++i) {
    const std::int64_t li = ladder.levels()[i];
    check(li >= 0 && li < table_.size(), "Server: governor level not in table");
    freqs.push_back(table_.level(li).freq_mhz);
    // A hardware-only baseline keeps the level-0 pattern set everywhere.
    effective_sparsities.push_back(
        config_.software_reconfig ? sparsities[i] : sparsities.front());
  }
  analytic_ = std::make_unique<AnalyticBackend>(
      latency, spec, config_.exec_mode, std::move(freqs), effective_sparsities);
  backend_ = analytic_.get();
}

void Server::adopt_engine(std::unique_ptr<ReconfigEngine> engine) {
  if (engine != nullptr) {
    check(engine->num_levels() == governor_.policy().num_levels(),
          "Server: engine must have one pattern set per governor level");
  }
  engine_ = std::move(engine);
}

void Server::adopt_backend(std::unique_ptr<ExecutionBackend> backend) {
  backend_ = backend != nullptr ? backend.get() : analytic_.get();
  owned_backend_ = std::move(backend);
}

double Server::batch_latency_ms(std::int64_t batch_size,
                                std::int64_t level_pos) const {
  return analytic_->batch_latency_ms(batch_size, level_pos);
}

ServerStats Server::serve(const std::vector<Request>& schedule) {
  for (const Request& r : schedule) {
    if (r.model_id != 0) {
      throw CheckError("Server: request " + std::to_string(r.id) +
                       " targets model " + std::to_string(r.model_id) +
                       "; a single-model Server serves only model 0");
    }
  }
  NodeStats node = serve_session({ShardRef{0, this}}, battery_, governor_,
                                 table_, power_, observers_, schedule);
  ServerStats stats = std::move(node.per_model.front().second);
  if (observers_.metrics != nullptr) {
    MetricLabels labels;
    labels.add("policy", stats.policy).add("backend", stats.backend);
    stats.publish(*observers_.metrics, labels);
  }
  return stats;
}

}  // namespace rt3
