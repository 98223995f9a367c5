#include "serve/node.hpp"

#include <algorithm>
#include <string>

#include "common/check.hpp"
#include "serve/serve_loop.hpp"

namespace rt3 {

ModelDeployment& ModelDeployment::config(const ServerConfig& config) {
  config_ = config;
  return *this;
}

ModelDeployment& ModelDeployment::spec(const ModelSpec& spec) {
  spec_ = spec;
  return *this;
}

ModelDeployment& ModelDeployment::latency(const LatencyModel& latency) {
  latency_ = latency;
  return *this;
}

ModelDeployment& ModelDeployment::sparsities(std::vector<double> sparsities) {
  sparsities_ = std::move(sparsities);
  return *this;
}

ModelDeployment& ModelDeployment::engine(
    std::unique_ptr<ReconfigEngine> engine) {
  engine_ = std::move(engine);
  return *this;
}

ModelDeployment& ModelDeployment::backend(
    std::unique_ptr<ExecutionBackend> backend) {
  backend_ = std::move(backend);
  return *this;
}

std::unique_ptr<Server> ModelDeployment::build(const VfTable& table,
                                               const GovernorHandle& governor,
                                               const PowerModel& power) && {
  check(!sparsities_.empty(),
        "ModelDeployment: sparsities(...) required (one per governor level)");
  auto server = std::make_unique<Server>(config_, table, governor, power,
                                         latency_, spec_, sparsities_);
  if (backend_ != nullptr) {
    server->adopt_backend(std::move(backend_));
  }
  if (engine_ != nullptr) {
    server->adopt_engine(std::move(engine_));
  }
  return server;
}

Server& ModelRegistry::add(std::int64_t model_id,
                           std::unique_ptr<Server> shard) {
  check(shard != nullptr, "ModelRegistry: null shard");
  const auto it = std::lower_bound(ids_.begin(), ids_.end(), model_id);
  check(it == ids_.end() || *it != model_id,
        "ModelRegistry: duplicate model id " + std::to_string(model_id));
  const auto pos = static_cast<std::size_t>(it - ids_.begin());
  ids_.insert(it, model_id);
  shards_.insert(shards_.begin() + static_cast<std::ptrdiff_t>(pos),
                 std::move(shard));
  return *shards_[pos];
}

Server* ModelRegistry::find(std::int64_t model_id) const {
  const auto it = std::lower_bound(ids_.begin(), ids_.end(), model_id);
  if (it == ids_.end() || *it != model_id) {
    return nullptr;
  }
  return shards_[static_cast<std::size_t>(it - ids_.begin())].get();
}

ServeNode::ServeNode(NodeConfig config, VfTable table, GovernorHandle governor,
                     PowerModel power)
    : config_(config),
      table_(std::move(table)),
      governor_(std::move(governor)),
      power_(power),
      battery_(config.battery_capacity_mj) {
  for (const std::int64_t li : governor_.ladder().levels()) {
    check(li >= 0 && li < table_.size(),
          "ServeNode: governor level not in table");
  }
}

Server& ServeNode::add_model(std::int64_t model_id,
                             ModelDeployment deployment) {
  std::unique_ptr<Server> shard =
      std::move(deployment).build(table_, governor_, power_);
  return registry_.add(model_id, std::move(shard));
}

Server& ServeNode::model(std::int64_t model_id) {
  Server* shard = registry_.find(model_id);
  check(shard != nullptr,
        "ServeNode: no model " + std::to_string(model_id));
  return *shard;
}

NodeStats ServeNode::serve(const std::vector<Request>& schedule) {
  std::vector<ShardRef> shards;
  for (const std::int64_t id : registry_.ids()) {
    shards.push_back(ShardRef{id, registry_.find(id)});
  }
  NodeStats node = serve_session(shards, battery_, governor_, table_, power_,
                                 observers_, schedule);
  if (observers_.metrics != nullptr) {
    node.publish(*observers_.metrics);
  }
  return node;
}

}  // namespace rt3
