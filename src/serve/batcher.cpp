#include "serve/batcher.hpp"

#include <algorithm>
#include <limits>

#include "common/check.hpp"

namespace rt3 {

Batcher::Batcher(BatchPolicy policy, SchedulerConfig scheduler)
    : policy_(policy), cap_(policy.max_batch_size), pending_(scheduler) {
  check(policy_.max_batch_size >= 1, "Batcher: max_batch_size must be >= 1");
  check(policy_.max_wait_ms >= 0.0, "Batcher: negative max_wait_ms");
}

void Batcher::push(const Request& r) {
  check(pending_.empty() || last_arrival_ms_ <= r.arrival_ms,
        "Batcher: requests must arrive in timestamp order");
  last_arrival_ms_ = r.arrival_ms;
  pending_.push(r);
}

bool Batcher::ready(double now_ms) const {
  if (pending_.empty()) {
    return false;
  }
  if (pending_.size() >= cap_) {
    return true;
  }
  return now_ms >= release_at_ms();
}

double Batcher::release_at_ms() const {
  if (pending_.empty()) {
    return std::numeric_limits<double>::infinity();
  }
  return pending_.min_arrival_ms() + policy_.max_wait_ms;
}

std::vector<Request> Batcher::shed_expired(double now_ms) {
  return pending_.extract_expired(now_ms);
}

void Batcher::set_batch_cap(std::int64_t cap) {
  cap_ = std::clamp<std::int64_t>(cap, 1, policy_.max_batch_size);
}

std::vector<Request> Batcher::pop_batch(double now_ms, bool force) {
  check(force || ready(now_ms), "Batcher: pop_batch before ready");
  std::vector<Request> batch;
  const auto take =
      static_cast<std::size_t>(std::min<std::int64_t>(cap_, pending()));
  batch.reserve(take);
  for (std::size_t i = 0; i < take; ++i) {
    batch.push_back(pending_.pop());
  }
  return batch;
}

}  // namespace rt3
