// Scheduling-policy vocabulary for the serving subsystem.
//
// The Batcher holds pending requests in a RequestHeap (request.hpp)
// whose pop order is policy-driven rather than arrival-driven:
//   kFifo        — strict push order (bitwise-identical to the historical
//                  deque path; the heap key is the push sequence number);
//   kEdf         — earliest absolute deadline first;
//   kEdfPriority — EDF within weighted priority classes, with an aging
//                  (anti-starvation) term so a low-priority request cannot
//                  wait unboundedly behind a sustained high-priority load.
//
// The EDF-with-priority key is evaluated in its STATIC form: the dynamic
// rank at decision time `now` is
//
//   deadline + prio_weight_ms * class - aging_ms_per_ms * (now - arrival)
//
// and the `-aging * now` term is common to every pending request, so the
// ordering is identical to the push-time constant
//
//   deadline + prio_weight_ms * class + aging_ms_per_ms * arrival.
//
// Keys are therefore computed exactly once, the heap never needs re-keying
// as the clock advances, and pop order is bit-deterministic (ties broken
// by push sequence).
#pragma once

#include <cstdint>
#include <string>

namespace rt3 {

enum class SchedulingPolicy : std::uint8_t { kFifo, kEdf, kEdfPriority };

/// "fifo" / "edf" / "edf-prio" (throws CheckError otherwise).
SchedulingPolicy scheduling_policy_from_name(const std::string& name);
std::string scheduling_policy_name(SchedulingPolicy policy);

struct SchedulerConfig {
  SchedulingPolicy policy = SchedulingPolicy::kFifo;
  /// kEdfPriority: key penalty (virtual ms) per priority-class step; class
  /// c is scheduled as if its deadline were prio_weight_ms * c later.
  double prio_weight_ms = 400.0;
  /// kEdfPriority: how much already-waited time counts against the key.
  /// 0 keeps pure class-weighted EDF; larger values pull long-waiting
  /// requests forward faster (the anti-starvation knob).
  double aging_ms_per_ms = 0.5;
};

}  // namespace rt3
