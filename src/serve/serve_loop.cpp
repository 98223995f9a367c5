#include "serve/serve_loop.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <utility>

#include "common/check.hpp"
#include "obs/attribution.hpp"
#include "obs/batch_outcome.hpp"
#include "obs/metrics.hpp"
#include "obs/slo.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"
#include "serve/batcher.hpp"
#include "serve/policy.hpp"
#include "serve/server.hpp"

namespace rt3 {
namespace {

/// Virtual switch latency of a shard without a ReconfigEngine; with one,
/// the engine's modeled pattern-set switch time is used.
constexpr double kEnginelessSwitchMs = 5.0;

[[noreturn]] void reject_request(const Request& r, const char* what) {
  throw CheckError("serve: request " + std::to_string(r.id) + " " + what);
}

/// The loop reads the schedule in order and advances its clock to each
/// arrival, so an out-of-order or non-finite timestamp would be served
/// from a time it was not yet visible (or wedge the clock).  A negative
/// priority class has no per-class stats slot; caught here, before any
/// batch runs.
void check_schedule(const std::vector<Request>& schedule) {
  double last_arrival = -std::numeric_limits<double>::infinity();
  for (const Request& r : schedule) {
    if (!std::isfinite(r.arrival_ms) || !std::isfinite(r.deadline_ms)) {
      reject_request(r, "has a non-finite arrival or deadline");
    }
    if (r.priority < 0) {
      reject_request(r, "has a negative priority class");
    }
    if (r.arrival_ms < last_arrival) {
      reject_request(r, "arrives before its predecessor (unsorted schedule)");
    }
    last_arrival = r.arrival_ms;
  }
}

/// Run-end conservation and attribution, checked in every build.  Every
/// successful battery drain is booked to exactly one model, so a surviving
/// battery's drawn energy equals the per-model sum (up to FP rounding); a
/// battery that died also lost the failed drain's remainder, so the sum
/// can only fall short of its capacity.
void check_invariants(const NodeStats& node, std::size_t scheduled,
                      const Battery& battery) {
  double energy_mj = 0.0;
  for (const auto& [id, s] : node.per_model) {
    check(s.submitted == s.completed + s.shed + s.rejected + s.dropped,
          "serve: submitted != completed + shed + rejected + dropped");
    check(s.miss_queued + s.miss_switch + s.miss_exec == s.deadline_misses,
          "serve: miss attribution does not sum to deadline misses");
    energy_mj += s.energy_used_mj;
  }
  check(node.submitted == static_cast<std::int64_t>(scheduled),
        "serve: unroutable + submitted != scheduled requests");
  const double tolerance_mj = 1e-9 * battery.capacity_mj();
  if (battery.empty()) {
    check(energy_mj <= battery.capacity_mj() + tolerance_mj,
          "serve: per-model energy exceeds the battery capacity");
  } else {
    const double drawn_mj = battery.capacity_mj() - battery.remaining_mj();
    check(std::abs(energy_mj - drawn_mj) <= tolerance_mj,
          "serve: per-model energy != energy drawn from the battery");
  }
}

/// Switches `engine` to level `to` at virtual time `at_ms`.  An effective
/// switch is recorded as a `pattern.swap` instant on lane 0 (wall args
/// only when the recorder records wall time) and a node.swap_bytes point,
/// both stamped at the switch's start.
SwitchReport switch_engine(ReconfigEngine& engine, std::int64_t to,
                           double at_ms, TraceRecorder* trace,
                           TelemetrySampler* telemetry) {
  const SwitchReport report = engine.switch_to(to);
  if (report.from_level == report.to_level) {
    return report;
  }
  if (telemetry != nullptr) {
    telemetry->record_swap_bytes(at_ms, static_cast<double>(report.swap_bytes));
  }
  if (trace != nullptr) {
    TraceEvent ev("pattern.swap", "switch", at_ms, 0);
    ev.arg("from_level", report.from_level)
        .arg("to_level", report.to_level)
        .arg("modeled_ms", report.modeled_ms);
    if (trace->record_wall()) {
      ev.arg("wall_ms", report.wall_ms);
    }
    trace->record(std::move(ev));
  }
  return report;
}

/// One model's in-flight serving state inside the loop.
struct Shard {
  std::int64_t model_id = 0;
  Server* server = nullptr;
  Batcher batcher;
  ServerStats stats;
  Shard(std::int64_t id, Server* s)
      : model_id(id),
        server(s),
        batcher(s->config().batch, s->config().scheduler) {}
};

}  // namespace

NodeStats serve_session(const std::vector<ShardRef>& refs, Battery& battery,
                        const GovernorHandle& governor, const VfTable& table,
                        const PowerModel& power,
                        const SessionObservers& observers,
                        const std::vector<Request>& schedule) {
  check(!refs.empty(), "serve: no models registered");
  check_schedule(schedule);
  TraceRecorder* const trace = observers.trace;
  TelemetrySampler* const telemetry = observers.telemetry;
  SloMonitor* const slo = observers.slo;
  MetricsRegistry* const metrics = observers.metrics;
  GovernorPolicy& gov = governor.policy();
  const Governor& ladder = governor.ladder();
  gov.reset();  // fresh episode: EWMAs / recurrent state, never weights

  std::vector<Shard> shards;
  shards.reserve(refs.size());
  for (const ShardRef& ref : refs) {
    check(shards.empty() || shards.back().model_id < ref.model_id,
          "serve: shard ids must be ascending");
    shards.emplace_back(ref.model_id, ref.server);
    Shard& sh = shards.back();
    sh.stats.backend = ref.server->backend().name();
    sh.stats.policy =
        scheduling_policy_name(ref.server->config().scheduler.policy);
    sh.stats.runs_per_level.assign(ladder.levels().size(), 0.0);
  }
  // Routing: the shard serving `model_id`, by binary search over the
  // ascending ids (nullptr when no model matches).
  const auto id_less = [](const Shard& sh, std::int64_t id) {
    return sh.model_id < id;
  };
  const auto route = [&](std::int64_t model_id) -> Shard* {
    const auto it =
        std::lower_bound(shards.begin(), shards.end(), model_id, id_less);
    return it != shards.end() && it->model_id == model_id ? &*it : nullptr;
  };

  NodeStats node;
  battery.recharge();

  // Session-wide interval records for miss attribution: batches and
  // switch epochs from EVERY model serialize on the one core, so one
  // shared pair of accounts describes what any waiting request was
  // stalled behind.
  IntervalAccount switch_ivals;
  IntervalAccount exec_ivals;

  const auto n = static_cast<std::int64_t>(schedule.size());
  std::int64_t next = 0;     // next schedule index to route
  std::int64_t active = -1;  // current governor-level position
  // Drain-then-switch lag of the next switch epoch: set when a batch's
  // energy drain crosses a governor threshold (interpolated inside the
  // batch), consumed when the switch fires at the following batch
  // boundary.  Within an epoch, shard k's switch can only fire after
  // shards 0..k-1 have switched, so the recorded lag accumulates.
  double pending_switch_lag = 0.0;
  double now = 0.0;

  const auto total_pending = [&] {
    std::int64_t pending = 0;
    for (const Shard& sh : shards) {
      pending += sh.batcher.pending();
    }
    return pending;
  };

  // Session-wide deadline pressure: the most urgent shard's consumed
  // share of its max-wait budget (shard order is deterministic).
  const auto max_pressure = [&](double at_ms) {
    double pressure = 0.0;
    for (const Shard& sh : shards) {
      pressure = std::max(
          pressure, deadline_pressure(at_ms, sh.batcher.release_at_ms(),
                                      sh.batcher.policy().max_wait_ms));
    }
    return pressure;
  };

  while (next < n || total_pending() > 0) {
    if (battery.empty()) {
      break;
    }
    // Governor decision at the batch boundary only: in-flight work has
    // drained by construction, queued requests survive the switch.
    GovernorObservation gobs;
    gobs.now_ms = now;
    gobs.battery_fraction = battery.fraction();
    gobs.queue_depth = total_pending();
    gobs.deadline_pressure = max_pressure(now);
    const std::int64_t pos = gov.decide(gobs);
    if (pos != active) {
      // The battery crossing is one session-level event, and EVERY
      // resident model switches at this batch boundary, serialized on the
      // single core.
      double lag = pending_switch_lag;
      bool battery_died = false;
      if (trace != nullptr && active >= 0) {
        trace->record(TraceEvent("governor.step", "governor", now, 0)
                          .arg("from_level", active)
                          .arg("to_level", pos)
                          .arg("battery_fraction", battery.fraction()));
      }
      for (Shard& sh : shards) {
        const ServerConfig& cfg = sh.server->config();
        ReconfigEngine* engine = sh.server->reconfig_engine();
        if (cfg.software_reconfig && active >= 0) {
          if (!battery.drain(cfg.switch_energy_mj)) {
            battery_died = true;  // mid-epoch death: leftovers drop below
            break;
          }
          sh.stats.energy_used_mj += cfg.switch_energy_mj;
          double switch_ms = kEnginelessSwitchMs;
          if (engine != nullptr) {
            const SwitchReport report =
                switch_engine(*engine, pos, now, trace, telemetry);
            switch_ms = report.modeled_ms;
          }
          ++sh.stats.switches;
          switch_ivals.add(now, now + switch_ms);
          if (trace != nullptr) {
            TraceEvent ev("switch", "switch", now, sh.model_id + 1);
            ev.ph = 'X';
            ev.dur_ms = switch_ms;
            ev.arg("to_level", pos).arg("drain_lag_ms", lag);
            trace->record(std::move(ev));
          }
          if (telemetry != nullptr) {
            telemetry->record_switch(now, switch_ms);
          }
          now += switch_ms;
          sh.stats.switch_ms_total += switch_ms;
          sh.stats.switch_ms.push_back(switch_ms);
          sh.stats.switch_lag_ms.push_back(lag);
          lag += switch_ms;
        } else if (cfg.software_reconfig && engine != nullptr) {
          // Initial activation: free at t = 0.
          switch_engine(*engine, pos, now, trace, telemetry);
        }
        // Swap the active execution-plan set along with the pattern set
        // (virtual-time free: precompiled plans make this a pointer swap,
        // but the wall cost is reported per switch).
        const double swap_ms = sh.server->exec_backend().activate_level(pos);
        sh.stats.plan_swap_ms.push_back(swap_ms);
        sh.stats.plan_swap_ms_total += swap_ms;
      }
      pending_switch_lag = 0.0;
      if (battery_died) {
        break;
      }
      active = pos;
      continue;  // re-read the fraction in case the switches drained it dry
    }

    // Governor-aware batching, per shard (each deployment carries its own
    // margin/cap) against the one shared battery: close enough to the
    // next step-down threshold, shrink the batch cap so in-flight work —
    // and therefore the drain-then-switch point — comes sooner.  On the
    // last ladder level there is no switch left to hasten
    // (next_step_down is 0), so the full cap stays.  The battery is shared
    // and the ladder fixed, so the fraction and its threshold are read
    // once, for the first shard with a margin.
    bool read_threshold = false;
    double fraction = 0.0;
    double threshold = 0.0;
    for (Shard& sh : shards) {
      const ServerConfig& cfg = sh.server->config();
      const double margin = gov.shrink_margin(cfg.governor_margin);
      if (margin > 0.0) {
        if (!read_threshold) {
          fraction = battery.fraction();
          threshold = gov.next_step_down(fraction);
          read_threshold = true;
        }
        const bool near_switch =
            threshold > 0.0 && fraction - threshold <= margin;
        sh.batcher.set_batch_cap(near_switch ? cfg.governor_shrink_batch
                                             : cfg.batch.max_batch_size);
      }
    }

    // Route everything that has arrived by now.  Feasibility-based
    // admission rejects a request whose deadline lies inside the fastest
    // possible completion (an immediate solo launch at the current
    // level): admitting it could only miss AND queue-delay feasible work
    // behind it — the EDF domino under sustained overload.
    while (next < n &&
           schedule[static_cast<std::size_t>(next)].arrival_ms <= now) {
      const Request& r = schedule[static_cast<std::size_t>(next)];
      ++next;
      Shard* sh = route(r.model_id);
      if (sh == nullptr) {
        ++node.unroutable;
        if (telemetry != nullptr) {
          telemetry->count_unroutable();
        }
        if (trace != nullptr) {
          TraceEvent ev("unroutable", "router", r.arrival_ms, 0);
          ev.id = r.id;
          ev.arg("model_id", r.model_id);
          trace->record(std::move(ev));
        }
        continue;
      }
      ++sh->stats.submitted;
      const bool admitted =
          !sh->server->config().admit_feasible ||
          r.deadline_ms >= now + sh->server->batch_latency_ms(1, pos);
      if (telemetry != nullptr && !admitted) {
        telemetry->count_reject(r.model_id);
      }
      if (trace != nullptr) {
        TraceEvent ev(admitted ? "arrive" : "reject", "request", r.arrival_ms,
                      r.model_id + 1);
        ev.id = r.id;
        ev.arg("deadline_ms", r.deadline_ms).arg("model_id", r.model_id);
        trace->record(std::move(ev));
      }
      if (admitted) {
        sh->batcher.push(r);
        if (trace != nullptr) {
          TraceEvent ev("enqueue", "batcher", now, r.model_id + 1);
          ev.id = r.id;
          ev.arg("pending", sh->batcher.pending());
          trace->record(std::move(ev));
        }
      } else {
        ++sh->stats.rejected;
      }
    }

    // Load shedding per shard: a request whose deadline has already
    // passed cannot be served in time, so drop it before it occupies a
    // batch slot.
    for (Shard& sh : shards) {
      if (sh.server->config().shed_expired) {
        const std::vector<Request> shed = sh.batcher.shed_expired(now);
        const auto n_shed = static_cast<std::int64_t>(shed.size());
        if (trace != nullptr) {
          for (const Request& r : shed) {
            TraceEvent ev("shed", "batcher", now, sh.model_id + 1);
            ev.id = r.id;
            ev.arg("deadline_ms", r.deadline_ms);
            trace->record(std::move(ev));
          }
        }
        sh.stats.shed += n_shed;
        if (telemetry != nullptr && n_shed > 0) {
          telemetry->count_shed(sh.model_id, n_shed);
        }
      }
    }
    if (next >= n && total_pending() == 0) {
      continue;  // everything left was shed/rejected; the loop ends it
    }

    // Pick the shard to run: batches serialize on the one core, so take
    // the ready shard whose forced-release point is earliest (the oldest
    // waiting work), ties to the lowest model id.
    Shard* run = nullptr;
    for (Shard& sh : shards) {
      if (!sh.batcher.ready(now)) {
        continue;
      }
      if (run == nullptr ||
          sh.batcher.release_at_ms() < run->batcher.release_at_ms()) {
        run = &sh;
      }
    }
    if (run == nullptr) {
      // Nothing to do yet: jump to the earliest actionable instant — a
      // max-wait release or the next arrival, whichever comes first.
      double wake = next < n
                        ? schedule[static_cast<std::size_t>(next)].arrival_ms
                        : std::numeric_limits<double>::infinity();
      for (const Shard& sh : shards) {
        wake = std::min(wake, sh.batcher.release_at_ms());
      }
      check(wake < std::numeric_limits<double>::infinity(),
            "serve: idle with nothing pending");  // loop condition bars it
      now = std::max(now, wake);
      continue;
    }

    const std::vector<Request>& batch = run->batcher.pop_batch(now);
    const auto batch_size = static_cast<std::int64_t>(batch.size());
    if (trace != nullptr) {
      TraceEvent ev("batch.form", "batcher", now, run->model_id + 1);
      ev.arg("size", batch_size).arg("left_pending", run->batcher.pending());
      trace->record(std::move(ev));
    }
    ExecutionBackend& backend = run->server->exec_backend();
    const BatchExecution exec = backend.run_batch(batch_size, pos);
    const double lat_ms = exec.latency_ms;
    ServerStats& stats = run->stats;
    stats.kernel_wall_ms_total += exec.kernel_wall_ms;
    const VfLevel& level =
        table.level(ladder.levels()[static_cast<std::size_t>(pos)]);
    const double energy = power.energy_mj(level, lat_ms);
    const double frac_before = battery.fraction();
    if (!battery.drain(energy)) {
      // The popped batch is lost here; every other leftover is attributed
      // after the loop.
      stats.dropped += batch_size;
      if (trace != nullptr) {
        trace->record(TraceEvent("battery.dead", "governor", now, 0)
                          .arg("model_id", run->model_id));
      }
      break;
    }
    // Did this batch's drain cross the policy's decision boundary?  If so
    // the switch can only fire at the batch boundary: the policy
    // interpolates the crossing inside the (linear) drain.  Negative
    // means no boundary was crossed.
    const double frac_after = battery.fraction();
    const double drain_lag =
        gov.drain_lag_ms(pos, frac_before, frac_after, lat_ms);
    if (drain_lag >= 0.0) {
      pending_switch_lag = drain_lag;
    }
    const double end = now + lat_ms;
    BatchOutcome outcome;
    outcome.model_id = run->model_id;
    outcome.start_ms = now;
    outcome.end_ms = end;
    outcome.batch_size = batch_size;
    outcome.level_pos = pos;
    outcome.energy_mj = energy;
    outcome.battery_fraction = frac_after;
    outcome.drain_fraction = frac_before - frac_after;
    outcome.queue_depth = run->batcher.pending();
    outcome.node_queue_depth = total_pending();
    for (const Request& r : batch) {
      stats.latency_ms.push_back(end - r.arrival_ms);
      outcome.latency_sum_ms += end - r.arrival_ms;
      // Decompose against the session-wide accounts BEFORE this batch
      // joins exec_ivals, so its own execution counts as exec_ms; waiting
      // behind ANOTHER model's batch is queue_wait, which makes
      // cross-model head-of-line blocking visible.
      const WaitBreakdown w =
          attribute_wait(switch_ivals, exec_ivals, r.arrival_ms, now, end);
      stats.queue_wait_ms.push_back(w.queue_wait_ms);
      stats.batch_wait_ms.push_back(w.batch_wait_ms);
      stats.switch_stall_req_ms.push_back(w.switch_stall_ms);
      stats.exec_req_ms.push_back(w.exec_ms);
      stats.ensure_class(r.priority);
      ++stats.completed_per_class[static_cast<std::size_t>(r.priority)];
      MissClass miss = MissClass::kNone;
      if (end > r.deadline_ms) {
        ++stats.deadline_misses;
        ++outcome.misses;
        ++stats.misses_per_class[static_cast<std::size_t>(r.priority)];
        miss = classify_miss(w, r.arrival_ms, end, r.deadline_ms);
        switch (miss) {
          case MissClass::kQueued: ++stats.miss_queued; break;
          case MissClass::kSwitch: ++stats.miss_switch; break;
          case MissClass::kExec: ++stats.miss_exec; break;
          case MissClass::kNone: break;  // unreachable: end > deadline
        }
      }
      if (trace != nullptr) {
        const std::int64_t lane = run->model_id + 1;
        TraceEvent span("request", "request", r.arrival_ms, lane);
        span.ph = 'X';
        span.dur_ms = end - r.arrival_ms;
        span.id = r.id;
        span.arg("queue_wait_ms", w.queue_wait_ms)
            .arg("batch_wait_ms", w.batch_wait_ms)
            .arg("switch_stall_ms", w.switch_stall_ms)
            .arg("exec_ms", w.exec_ms)
            .arg("deadline_ms", r.deadline_ms);
        trace->record(std::move(span));
        if (miss != MissClass::kNone) {
          TraceEvent ev("miss", "request", end, lane);
          ev.id = r.id;
          ev.arg("cause", std::string(miss_class_name(miss)))
              .arg("over_by_ms", end - r.deadline_ms);
          trace->record(std::move(ev));
        }
      }
    }
    exec_ivals.add(now, end);
    // For stateful policies this also closes the decision epoch opened at
    // the batch boundary.
    gov.observe_batch(outcome);
    if (trace != nullptr) {
      TraceEvent ev("batch", "batch", now, run->model_id + 1);
      ev.ph = 'X';
      ev.dur_ms = lat_ms;
      ev.arg("size", batch_size).arg("level", pos).arg("energy_mj", energy);
      if (trace->record_wall()) {
        ev.arg("kernel_wall_ms", exec.kernel_wall_ms);
      }
      trace->record(std::move(ev));
    }
    stats.energy_used_mj += energy;
    stats.completed += batch_size;
    stats.runs_per_level[static_cast<std::size_t>(pos)] +=
        static_cast<double>(batch_size);
    ++stats.batches;
    stats.batch_sizes.push_back(batch_size);
    stats.busy_ms += lat_ms;
    if (telemetry != nullptr) {
      telemetry->on_batch(outcome);
    }
    if (slo != nullptr) {
      // One monitor per session: a breach means the whole device is
      // burning its error budget, whichever model the misses came from.
      slo->observe(outcome, trace);
    }
    now = end;
  }

  if (battery.empty()) {
    // Battery died: queued requests drop where they sat, unrouted ones
    // still attribute to their target model (or unroutable), so per-model
    // submitted always sums to the schedule.
    for (Shard& sh : shards) {
      sh.stats.dropped += sh.batcher.pending();
    }
    for (; next < n; ++next) {
      Shard* sh = route(schedule[static_cast<std::size_t>(next)].model_id);
      if (sh == nullptr) {
        ++node.unroutable;
      } else {
        ++sh->stats.submitted;
        ++sh->stats.dropped;
      }
    }
  }

  node.sim_end_ms = now;
  for (Shard& sh : shards) {
    sh.stats.sim_end_ms = now;
    node.per_model.emplace_back(sh.model_id, std::move(sh.stats));
  }
  node.aggregate();
  if (metrics != nullptr) {
    if (slo != nullptr) {
      slo->publish(*metrics);
    }
    if (trace != nullptr) {
      metrics->gauge("trace.dropped_events")
          .set(static_cast<double>(trace->dropped_events()));
    }
  }
  check_invariants(node, schedule.size(), battery);
  return node;
}

}  // namespace rt3
