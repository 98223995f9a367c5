// Dynamic batching under a max-size / max-wait policy, on a virtual clock,
// with policy-driven batch composition.
//
// The batcher holds admitted requests in a RequestHeap and releases a
// batch when either (a) the effective batch cap is reached, or (b) the
// oldest pending request has waited max_wait_ms.  Batches are composed by
// popping the head of the scheduling order (FIFO / EDF / EDF+priority),
// not arrival order.  It is deliberately clock-agnostic: callers pass
// `now_ms` explicitly, which makes batch formation deterministic in tests
// and lets the Server drive it from the simulated discharge clock.
//
// The effective cap (set_batch_cap) is how governor-aware batching plugs
// in: near a battery switch threshold the Server shrinks the cap below
// max_batch_size so batches — and therefore the drain-then-switch point —
// come sooner.
#pragma once

#include <cstdint>
#include <vector>

#include "serve/policy.hpp"
#include "serve/request.hpp"

namespace rt3 {

struct BatchPolicy {
  /// Upper bound on requests per batch (>= 1).
  std::int64_t max_batch_size = 8;
  /// Longest a request may sit in the batcher before forcing release.
  double max_wait_ms = 25.0;
};

class Batcher {
 public:
  explicit Batcher(BatchPolicy policy, SchedulerConfig scheduler = {});

  /// Admits a request (requests must be pushed in arrival order).
  void push(const Request& r);

  /// True when a batch should be released at virtual time `now_ms`.
  bool ready(double now_ms) const;

  /// Virtual time at which the oldest pending request forces a release
  /// (its arrival + max_wait); +infinity when nothing is pending.  The
  /// server uses this to decide how far to advance the clock while idle.
  double release_at_ms() const;

  /// Removes and returns the up-to-batch_cap() policy-first requests.
  /// Requires ready(now_ms) or force; the returned batch is never empty
  /// unless nothing was pending.
  std::vector<Request> pop_batch(double now_ms, bool force = false);

  /// Load shedding: removes every pending request whose deadline is
  /// already blown at `now_ms` (it could not possibly be served in time),
  /// so it never occupies a batch slot.  Returns the shed requests.
  std::vector<Request> shed_expired(double now_ms);

  /// Governor-aware batching: caps the next batches at `cap` (clamped to
  /// [1, max_batch_size]); pass max_batch_size to restore the full cap.
  void set_batch_cap(std::int64_t cap);
  std::int64_t batch_cap() const { return cap_; }

  std::int64_t pending() const { return pending_.size(); }

  const BatchPolicy& policy() const { return policy_; }

 private:
  BatchPolicy policy_;
  std::int64_t cap_;
  RequestHeap pending_;
  /// Arrival of the most recent push, for the in-order admission check.
  /// Never reset: push() short-circuits the check while the heap is
  /// empty, which is what makes an earlier-arrival push legal again
  /// after a drain (matching the historical deque path, whose back()
  /// comparison vanished along with its contents).
  double last_arrival_ms_ = 0.0;
};

}  // namespace rt3
