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
  // Common case: nothing expired, so the heap stays as it is.
  if (std::none_of(entries_.begin(), entries_.end(), [now_ms](const Entry& e) {
        return e.req.deadline_ms <= now_ms;
      })) {
    return {};
  }
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

}  // namespace rt3
