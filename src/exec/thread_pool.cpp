#include "exec/thread_pool.hpp"

#include <algorithm>
#include <string>
#include <system_error>

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

#include "common/check.hpp"

namespace rt3 {

ThreadPool::ThreadPool(std::int64_t num_threads, bool pin_to_cores) {
  check(num_threads >= 1, "ThreadPool: need at least one thread");
  workers_.reserve(static_cast<std::size_t>(num_threads));
  tasks_.reserve(static_cast<std::size_t>(num_threads));
  const unsigned cores = std::max(1U, std::thread::hardware_concurrency());
  pinned_ = pin_to_cores;
  for (std::int64_t i = 0; i < num_threads; ++i) {
    try {
      workers_.emplace_back([this] { worker_loop(); });
    } catch (const std::system_error& e) {
      // Unwinding past a joinable std::thread would std::terminate.
      stop_and_join();
      throw CheckError("ThreadPool: cannot start worker " +
                       std::to_string(i + 1) + " of " +
                       std::to_string(num_threads) + ": " + e.what());
    }
    if (pin_to_cores) {
#if defined(__linux__)
      cpu_set_t set;
      CPU_ZERO(&set);
      CPU_SET(static_cast<unsigned>(i) % cores, &set);
      if (pthread_setaffinity_np(workers_.back().native_handle(),
                                 sizeof(set), &set) != 0) {
        pinned_ = false;  // best-effort: a restricted cgroup may refuse
      }
#else
      pinned_ = false;
#endif
    }
  }
}

ThreadPool::~ThreadPool() { stop_and_join(); }

void ThreadPool::stop_and_join() {
  {
    MutexLock lock(mu_);
    stopping_ = true;
  }
  has_work_.notify_all();
  for (auto& w : workers_) {
    w.join();
  }
}

void ThreadPool::submit(std::function<void()> task) {
  {
    MutexLock lock(mu_);
    check(!stopping_, "ThreadPool: submit after shutdown");
    // A full vector reclaims its popped slots before it grows, once they
    // are at least half of it, so a queue that never drains stays within
    // a constant factor of its pending tasks.
    if (tasks_.size() == tasks_.capacity() && 2 * head_ >= tasks_.size()) {
      tasks_.erase(tasks_.begin(),
                   tasks_.begin() + static_cast<std::ptrdiff_t>(head_));
      head_ = 0;
    }
    tasks_.push_back(std::move(task));
  }
  has_work_.notify_one();
}

void ThreadPool::wait_idle() {
  UniqueLock lock(mu_);
  while (!(queue_empty() && active_ == 0)) {
    idle_.wait(lock);
  }
  if (first_error_ != nullptr) {
    const std::exception_ptr error = first_error_;
    first_error_ = nullptr;
    std::rethrow_exception(error);
  }
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    bool poisoned = false;
    {
      UniqueLock lock(mu_);
      while (!(stopping_ || !queue_empty())) {
        has_work_.wait(lock);
      }
      if (queue_empty()) {
        return;  // stopping and drained
      }
      task = std::move(tasks_[head_++]);
      if (queue_empty()) {
        tasks_.clear();  // keeps the capacity for the next submits
        head_ = 0;
      }
      ++active_;
      // After a failure the queue is poison: pop-and-drop the backlog so
      // wait_idle can rethrow promptly instead of waiting out every
      // queued task body.
      poisoned = first_error_ != nullptr;
    }
    if (!poisoned) {
      try {
        task();
      } catch (...) {
        MutexLock lock(mu_);
        if (first_error_ == nullptr) {
          first_error_ = std::current_exception();
        }
      }
    }
    {
      MutexLock lock(mu_);
      --active_;
      if (queue_empty() && active_ == 0) {
        idle_.notify_all();
      }
    }
  }
}

}  // namespace rt3
