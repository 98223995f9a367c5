#include "serve/request.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "common/check.hpp"

namespace rt3 {

double policy_key(const Request& r, const SchedulerConfig& config) {
  switch (config.policy) {
    case SchedulingPolicy::kFifo:
      // Constant key: the sequence tie-break alone yields push order.
      return 0.0;
    case SchedulingPolicy::kEdf:
      return r.deadline_ms;
    case SchedulingPolicy::kEdfPriority:
      return r.deadline_ms +
             config.prio_weight_ms * static_cast<double>(r.priority) +
             config.aging_ms_per_ms * r.arrival_ms;
  }
  return 0.0;
}

RequestHeap::RequestHeap(SchedulerConfig config) : config_(config) {
  check(config_.prio_weight_ms >= 0.0, "RequestHeap: negative prio weight");
  check(config_.aging_ms_per_ms >= 0.0, "RequestHeap: negative aging rate");
}

bool RequestHeap::later(const Entry& a, const Entry& b) {
  // True when a schedules AFTER b, i.e. a is "less" in pop priority —
  // std::*_heap then keep the policy-minimal entry at the front.
  return a.key != b.key ? a.key > b.key : a.seq > b.seq;
}

void RequestHeap::push(const Request& r) {
  Entry e;
  e.key = policy_key(r, config_);
  e.seq = next_seq_++;
  e.req = r;
  entries_.push_back(std::move(e));
  std::push_heap(entries_.begin(), entries_.end(), later);
}

const Request& RequestHeap::peek() const {
  check(!entries_.empty(), "RequestHeap: peek on empty heap");
  return entries_.front().req;
}

Request RequestHeap::pop() {
  check(!entries_.empty(), "RequestHeap: pop on empty heap");
  std::pop_heap(entries_.begin(), entries_.end(), later);
  Request out = std::move(entries_.back().req);
  entries_.pop_back();
  return out;
}

double RequestHeap::min_arrival_ms() const {
  double earliest = std::numeric_limits<double>::infinity();
  for (const Entry& e : entries_) {
    earliest = std::min(earliest, e.req.arrival_ms);
  }
  return earliest;
}

std::vector<Request> RequestHeap::extract_expired(double now_ms) {
  std::vector<Entry> expired;
  std::vector<Entry> kept;
  kept.reserve(entries_.size());
  for (Entry& e : entries_) {
    (e.req.deadline_ms <= now_ms ? expired : kept).push_back(std::move(e));
  }
  entries_ = std::move(kept);
  // Rebuild: the survivors sit in arbitrary array order, not heap order.
  std::make_heap(entries_.begin(), entries_.end(), later);
  std::sort(expired.begin(), expired.end(),
            [](const Entry& a, const Entry& b) { return a.seq < b.seq; });
  std::vector<Request> out;
  out.reserve(expired.size());
  for (Entry& e : expired) {
    out.push_back(std::move(e.req));
  }
  return out;
}

RequestQueue::RequestQueue(std::int64_t capacity) : capacity_(capacity) {
  check(capacity >= 0, "RequestQueue: negative capacity");
}

bool RequestQueue::push(Request r) {
  UniqueLock lock(mu_);
  // Explicit wait loops (not wait(lock, pred)): the thread-safety
  // analysis cannot look inside a predicate lambda, but it proves these
  // guarded reads are under mu_ in the loop form.
  while (!(closed_ || capacity_ == 0 || ssize_of(items_) < capacity_)) {
    not_full_.wait(lock);
  }
  if (closed_) {
    return false;
  }
  items_.push_back(r);
  lock.unlock();
  not_empty_.notify_one();
  return true;
}

bool RequestQueue::pop(Request& out) {
  UniqueLock lock(mu_);
  while (!(closed_ || !items_.empty())) {
    not_empty_.wait(lock);
  }
  if (items_.empty()) {
    return false;  // closed and drained
  }
  out = items_.front();
  items_.pop_front();
  lock.unlock();
  not_full_.notify_one();
  return true;
}

bool RequestQueue::try_pop(Request& out) {
  UniqueLock lock(mu_);
  if (items_.empty()) {
    return false;
  }
  out = items_.front();
  items_.pop_front();
  lock.unlock();
  not_full_.notify_one();
  return true;
}

void RequestQueue::close() {
  {
    MutexLock lock(mu_);
    closed_ = true;
  }
  not_empty_.notify_all();
  not_full_.notify_all();
}

bool RequestQueue::closed() const {
  MutexLock lock(mu_);
  return closed_;
}

std::int64_t RequestQueue::size() const {
  MutexLock lock(mu_);
  return ssize_of(items_);
}

std::vector<Request> drain_by_arrival(RequestQueue& queue) {
  std::vector<Request> collected;
  Request r;
  while (queue.pop(r)) {
    collected.push_back(r);
  }
  std::sort(collected.begin(), collected.end(),
            [](const Request& a, const Request& b) {
              return a.arrival_ms != b.arrival_ms ? a.arrival_ms < b.arrival_ms
                                                  : a.id < b.id;
            });
  return collected;
}

}  // namespace rt3
