// Per-request latency decomposition and deadline-miss attribution.
//
// A request's queue-to-completion latency splits EXACTLY into four parts:
//
//   latency = queue_wait + batch_wait + switch_stall + exec
//
//   queue_wait   — time OTHER batches were executing while it waited
//                  (head-of-line queueing on the single core)
//   switch_stall — time spent inside pattern-set switches while it waited
//                  (the reconfiguration overhead of the paper's
//                  Challenge 1, now visible per request)
//   batch_wait   — the remaining wait: the batcher holding the request
//                  for more arrivals / its max-wait release (the batching
//                  delay proper, including idle gaps)
//   exec         — its own batch's execution latency
//
// The serving loop records every switch and every batch execution as a
// virtual-time interval in an IntervalAccount; at completion the overlap
// of [arrival, start) with each account yields the decomposition in two
// O(log n) queries.  Deadline misses are then classified into exactly one
// of three causes, so miss_queued + miss_switch + miss_exec always equals
// deadline_misses:
//
//   miss_exec   — arrival + exec > deadline: even a zero-wait solo launch
//                 at this level would have missed (the level is too slow
//                 for the deadline, an execution-side miss)
//   miss_switch — end - switch_stall <= deadline: without the switch
//                 stalls it would have finished in time — the
//                 drain-then-switch overhead is the marginal killer
//   miss_queued — everything else: queueing/batching delay did it
#pragma once

#include <cstdint>
#include <vector>

namespace rt3 {

/// Append-only union of non-overlapping, time-ascending [start, end)
/// intervals with O(log n) total-overlap queries — the virtual-clock
/// record of "when switches ran" / "when batches ran".
class IntervalAccount {
 public:
  /// Appends an interval; `start` must be >= the previous interval's end
  /// (the virtual clock is monotone).  Zero-length intervals are ignored.
  void add(double start, double end);

  /// Total length of [a, b) ∩ (union of recorded intervals).
  double overlap(double a, double b) const;

  std::int64_t size() const {
    return static_cast<std::int64_t>(starts_.size());
  }
  /// Sum of all recorded interval lengths.
  double total() const { return cum_.empty() ? 0.0 : cum_.back(); }

 private:
  std::vector<double> starts_;
  std::vector<double> ends_;
  /// cum_[i] = total length of intervals [0, i); size starts_.size() + 1.
  std::vector<double> cum_ = {0.0};
};

/// One request's latency decomposition (all virtual ms, all >= 0).
struct WaitBreakdown {
  double queue_wait_ms = 0.0;
  double batch_wait_ms = 0.0;
  double switch_stall_ms = 0.0;
  double exec_ms = 0.0;
};

/// Decomposes the wait [arrival, start) against the recorded switch and
/// exec intervals; `end - start` becomes exec_ms.  Exact by construction:
/// the four parts sum to end - arrival (up to FP rounding).
WaitBreakdown attribute_wait(const IntervalAccount& switches,
                             const IntervalAccount& execs, double arrival_ms,
                             double start_ms, double end_ms);

/// Which stage killed a missed request (kNone when the deadline was met).
enum class MissClass : std::uint8_t { kNone, kQueued, kSwitch, kExec };

MissClass classify_miss(const WaitBreakdown& breakdown, double arrival_ms,
                        double end_ms, double deadline_ms);

const char* miss_class_name(MissClass c);

}  // namespace rt3
