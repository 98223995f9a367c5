#include "obs/attribution.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace rt3 {
namespace {

/// First index i of ascending `v` with in_tail(v[i]) (v.size() if none),
/// where in_tail holds on a suffix of `v`.  Gallops back from the end in
/// doubling steps, then binary-searches the bracket it lands in: O(log k)
/// for a boundary k entries from the end.  The serving loop queries waits
/// that end at its clock, so k counts intervals inside one wait, not the
/// session.
template <typename InTail>
std::size_t tail_boundary(const std::vector<double>& v, InTail in_tail) {
  std::size_t lo = 0;         // v[..lo) is known to be outside the tail
  std::size_t hi = v.size();  // v[hi..) is known to be in the tail
  for (std::size_t step = 1; step <= hi; step *= 2) {
    if (!in_tail(v[hi - step])) {
      lo = hi - step + 1;
      break;
    }
    hi -= step;
  }
  const auto first = v.begin();
  const auto boundary = std::partition_point(
      first + static_cast<std::ptrdiff_t>(lo),
      first + static_cast<std::ptrdiff_t>(hi),
      [&in_tail](double x) { return !in_tail(x); });
  return static_cast<std::size_t>(boundary - first);
}

}  // namespace

void IntervalAccount::add(double start, double end) {
  if (end <= start) {
    return;
  }
  check(starts_.empty() || start >= ends_.back(),
        "IntervalAccount: intervals must be appended in time order");
  starts_.push_back(start);
  ends_.push_back(end);
  cum_.push_back(cum_.back() + (end - start));
}

double IntervalAccount::overlap(double a, double b) const {
  if (b <= a || starts_.empty()) {
    return 0.0;
  }
  // First interval ending after a (upper_bound), first interval starting
  // at/after b (lower_bound): everything in [lo, hi) intersects [a, b).
  const std::size_t lo =
      tail_boundary(ends_, [a](double end) { return end > a; });
  const std::size_t hi =
      tail_boundary(starts_, [b](double start) { return start >= b; });
  if (lo >= hi) {
    return 0.0;
  }
  double total = cum_[hi] - cum_[lo];
  total -= std::max(0.0, a - starts_[lo]);       // clip head interval at a
  total -= std::max(0.0, ends_[hi - 1] - b);     // clip tail interval at b
  return std::max(total, 0.0);
}

WaitBreakdown attribute_wait(const IntervalAccount& switches,
                             const IntervalAccount& execs, double arrival_ms,
                             double start_ms, double end_ms) {
  WaitBreakdown w;
  w.exec_ms = std::max(0.0, end_ms - start_ms);
  const double wait = std::max(0.0, start_ms - arrival_ms);
  w.switch_stall_ms = switches.overlap(arrival_ms, start_ms);
  w.queue_wait_ms = execs.overlap(arrival_ms, start_ms);
  // Switch and exec intervals never overlap each other (the loop is
  // serialized on one virtual clock), so the remainder is the batching
  // hold; clamp absorbs FP rounding.
  w.batch_wait_ms =
      std::max(0.0, wait - w.switch_stall_ms - w.queue_wait_ms);
  return w;
}

MissClass classify_miss(const WaitBreakdown& breakdown, double arrival_ms,
                        double end_ms, double deadline_ms) {
  if (end_ms <= deadline_ms) {
    return MissClass::kNone;
  }
  if (arrival_ms + breakdown.exec_ms > deadline_ms) {
    return MissClass::kExec;
  }
  if (end_ms - breakdown.switch_stall_ms <= deadline_ms) {
    return MissClass::kSwitch;
  }
  return MissClass::kQueued;
}

const char* miss_class_name(MissClass c) {
  switch (c) {
    case MissClass::kNone:
      return "none";
    case MissClass::kQueued:
      return "queued";
    case MissClass::kSwitch:
      return "switch";
    case MissClass::kExec:
      return "exec";
  }
  return "none";
}

}  // namespace rt3
