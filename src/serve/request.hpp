// Deadline-tagged inference requests and the policy-ordered heap that
// ranks them inside the serving loop.
//
// Time in the serving subsystem is VIRTUAL and measured in milliseconds
// from session start: requests carry their arrival and absolute deadline
// timestamps, and the Server advances a simulated clock as batches
// execute.  This keeps every serve session bit-reproducible from a seed.
#pragma once

#include <cstdint>
#include <vector>

#include "serve/policy.hpp"

namespace rt3 {

/// One inference request flowing through the serving subsystem.
struct Request {
  std::int64_t id = 0;
  /// Virtual arrival timestamp (ms since session start).
  double arrival_ms = 0.0;
  /// Absolute virtual deadline; a request completing after this counts as
  /// a deadline miss (the paper's timing constraint T, per request).
  double deadline_ms = 0.0;
  /// Priority class, 0 = most urgent; only kEdfPriority looks at it.
  std::int64_t priority = 0;
  /// Target model on a multi-model ServeNode (see serve/node.hpp); the
  /// serving loop routes on this id.  A single-model Server serves only
  /// model 0 and rejects any other id with a CheckError.
  std::int64_t model_id = 0;
};

/// The policy's static scheduling key for one request (smaller = sooner);
/// see policy.hpp for the aging-term derivation.
double policy_key(const Request& r, const SchedulerConfig& config);

/// Binary min-heap of requests ordered by (policy key, push sequence).
///
/// Push order is remembered via a sequence number stamped intrusively on
/// each heap entry, which (a) makes kFifo pop in exact push order and
/// (b) makes every tie-break deterministic regardless of heap internals.
class RequestHeap {
 public:
  explicit RequestHeap(SchedulerConfig config = {});

  void push(const Request& r);

  /// Policy-minimal pending request; requires !empty().
  const Request& peek() const;
  Request pop();

  bool empty() const { return entries_.empty(); }
  std::int64_t size() const {
    return static_cast<std::int64_t>(entries_.size());
  }

  /// Earliest arrival among pending requests (+infinity when empty).
  /// O(n) scan over the pending requests, since under non-FIFO policies
  /// the oldest request is not the heap head.  The serving loop calls it
  /// a few times per iteration; its pending depths stay near the batch
  /// cap, so the scan is a few percent of loop time, not a hot spot.
  double min_arrival_ms() const;

  /// Removes every pending request whose deadline is <= now_ms; returned
  /// in push order (matching the historical deque scan).  One O(n) scan
  /// that neither allocates nor touches the heap when nothing has
  /// expired (the common case); otherwise the survivors are re-heaped in
  /// O(n).  Pop order is the same either way: (key, seq) is a total order.
  std::vector<Request> extract_expired(double now_ms);

 private:
  struct Entry {
    double key = 0.0;
    std::int64_t seq = 0;
    Request req;
  };
  /// std::*_heap comparator: (key, seq) is a TOTAL order, so the popped
  /// minimum — and therefore the observable pop sequence — is independent
  /// of the heap's internal array layout.
  static bool later(const Entry& a, const Entry& b);

  SchedulerConfig config_;
  std::vector<Entry> entries_;
  std::int64_t next_seq_ = 0;
};

}  // namespace rt3
