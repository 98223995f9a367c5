#include "serve/server.hpp"

#include <string>

#include "common/check.hpp"
#include "obs/metrics.hpp"
#include "serve/concurrent.hpp"
#include "serve/serve_loop.hpp"

namespace rt3 {

Server::Server(ServerConfig config, VfTable table, GovernorHandle governor,
               PowerModel power, LatencyModel latency, ModelSpec spec,
               std::vector<double> sparsities)
    : config_(config),
      table_(std::move(table)),
      governor_(std::move(governor)),
      power_(power),
      latency_(latency),
      spec_(std::move(spec)),
      sparsities_(std::move(sparsities)),
      battery_(config.battery_capacity_mj) {
  const Governor& ladder = governor_.ladder();
  check(sparsities_.size() == ladder.levels().size(),
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
    effective_sparsities.push_back(
        sparsity_for(static_cast<std::int64_t>(i)));
  }
  analytic_ = std::make_unique<AnalyticBackend>(
      latency_, spec_, config_.exec_mode, std::move(freqs),
      std::move(effective_sparsities));
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

double Server::sparsity_for(std::int64_t level_pos) const {
  return config_.software_reconfig
             ? sparsities_[static_cast<std::size_t>(level_pos)]
             : sparsities_.front();
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

ServerStats Server::serve_queue(RequestQueue& queue) {
  return serve(drain_by_arrival(queue));
}

ServerStats serve_concurrent(Server& server,
                             const std::vector<Request>& schedule,
                             std::int64_t producers) {
  return consume_schedule_concurrently(
      schedule, producers,
      [&server](RequestQueue& queue) { return server.serve_queue(queue); });
}

}  // namespace rt3
