// The one serving loop behind Server::serve and ServeNode::serve.
//
// A session is a list of resident models (shards) behind ONE battery and
// ONE governor on one virtual clock.  Each request is routed to its
// model's shard by model id, admitted (or rejected by feasibility
// admission), batched by that shard's Batcher, and executed at the
// governor's level.  Batches from different models serialize (one mobile
// core).  When the governor changes level, the loop drains the in-flight
// batch and then switches EVERY resident model's pattern set at that one
// batch boundary, in model-id order, so no model keeps running a
// sub-model the new V/F level cannot afford.
//
// A standalone Server is the one-shard case (model 0 on its own battery),
// so single-model and multi-model sessions share this code by
// construction.  Every executed batch yields one BatchOutcome
// (obs/batch_outcome.hpp), handed to the governor policy, the telemetry
// sampler and the SLO monitor.
#pragma once

#include <cstdint>
#include <vector>

#include "dvfs/dvfs.hpp"
#include "serve/governor_policy.hpp"
#include "serve/request.hpp"
#include "serve/stats.hpp"

namespace rt3 {

class Server;
class MetricsRegistry;
class TraceRecorder;
class TelemetrySampler;
class SloMonitor;

/// One resident model of a session: its id and the shard serving it.
struct ShardRef {
  std::int64_t model_id = 0;
  Server* server = nullptr;
};

/// What a session reports to; nullptr = detached.  The loop is the only
/// emitter: it builds every event from what the batcher, engine and
/// backend calls return, so no component holds an observer past the
/// session.  Every site in the loop is one null check and observation is
/// pure: attaching any of these leaves the session's stats byte-identical.
struct SessionObservers {
  /// Request-lifecycle (arrive/reject/enqueue/shed/request/miss),
  /// batch.form, batch and switch events on per-model lanes (model id +
  /// 1); governor.step, pattern.swap, battery.dead, unroutable and SLO
  /// transitions on lane 0.
  TraceRecorder* trace = nullptr;
  /// Every batch boundary, shed/reject/unroutable count and switch.
  TelemetrySampler* telemetry = nullptr;
  /// Every batch boundary; breach/recover events go to the trace.
  SloMonitor* slo = nullptr;
  /// At session end: the caller's stats view, the SLO breach counts and
  /// the trace's dropped-event count.
  MetricsRegistry* metrics = nullptr;
};

/// Runs one full session over `schedule` on `shards` behind the shared
/// battery and governor, and returns the aggregated per-model stats.
/// `shards` must be non-empty with ascending model ids.
/// Throws CheckError naming the request when the schedule is not sorted
/// by arrival, carries a non-finite arrival or deadline, or carries a
/// negative priority (all before any batch runs), and naming the
/// invariant when a run-end conservation or attribution check fails.
/// Deterministic.
NodeStats serve_session(const std::vector<ShardRef>& shards, Battery& battery,
                        const GovernorHandle& governor, const VfTable& table,
                        const PowerModel& power,
                        const SessionObservers& observers,
                        const std::vector<Request>& schedule);

}  // namespace rt3
