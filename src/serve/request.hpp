// Deadline-tagged inference requests, the policy-ordered heap that ranks
// them, and the FIFO MPMC queue that carries them from producers (traffic
// sources, RPC front-ends) to the serving loop.
//
// Time in the serving subsystem is VIRTUAL and measured in milliseconds
// from session start: requests carry their arrival and absolute deadline
// timestamps, and the Server advances a simulated clock as batches
// execute.  This keeps every serve session bit-reproducible from a seed
// while the queue and thread pool remain real concurrency primitives.
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "common/lockdep.hpp"
#include "common/thread_annotations.hpp"
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
  /// O(n) scan: under non-FIFO policies the oldest request is not the
  /// heap head, and pending depths here are tiny relative to batch work.
  double min_arrival_ms() const;

  /// Removes every pending request whose deadline is <= now_ms; returned
  /// in push order (matching the historical deque scan).
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

/// Blocking multi-producer/multi-consumer FIFO queue of requests: the
/// ingestion path from producer threads into a serving session.
///
/// Pops come out in push order.  Scheduling policy is not applied here:
/// serve_queue() drains the queue, orders it by (arrival, id) with
/// drain_by_arrival(), and the Batcher applies the policy inside the loop.
/// close() wakes everyone: pushes are rejected afterwards, pops drain what
/// is left and then return false.  capacity 0 means unbounded; a bounded
/// queue blocks producers when full (back-pressure).
class RequestQueue {
 public:
  explicit RequestQueue(std::int64_t capacity = 0);

  /// Blocks while a bounded queue is full; returns false iff closed.
  bool push(Request r) RT3_EXCLUDES(mu_);

  /// Blocks until an item arrives or the queue is closed and drained;
  /// returns false only in the latter case.
  bool pop(Request& out) RT3_EXCLUDES(mu_);

  /// Non-blocking pop; false if nothing is immediately available.
  bool try_pop(Request& out) RT3_EXCLUDES(mu_);

  void close() RT3_EXCLUDES(mu_);
  bool closed() const RT3_EXCLUDES(mu_);
  std::int64_t size() const RT3_EXCLUDES(mu_);

 private:
  mutable Mutex mu_{"RequestQueue::mu_"};
  CondVar not_empty_;
  CondVar not_full_;
  std::deque<Request> items_ RT3_GUARDED_BY(mu_);
  std::int64_t capacity_;
  bool closed_ RT3_GUARDED_BY(mu_) = false;
};

/// Pops `queue` until it is closed and drained, and returns the requests
/// ordered by (arrival timestamp, id): the deterministic schedule behind
/// every serve_queue(), whatever order concurrent producers pushed in.
std::vector<Request> drain_by_arrival(RequestQueue& queue);

}  // namespace rt3
