// Fixed-size worker pool behind the kernel engine: the row-parallel GEMM
// kernels (kernels.hpp) and MeasuredBackend's pinned workers.  Tasks are
// opaque closures; the pool makes no ordering guarantee across workers.
#pragma once

#include <cstdint>
#include <exception>
#include <functional>
#include <thread>
#include <vector>

#include "common/lockdep.hpp"
#include "common/thread_annotations.hpp"

namespace rt3 {

class ThreadPool {
 public:
  /// Spawns `num_threads` workers (>= 1).  With `pin_to_cores`, worker i
  /// is pinned to hardware core i % hardware_concurrency (Linux,
  /// best-effort) so kernel workers keep their per-core L1/L2 warm and
  /// latency samples stop paying migration jitter; elsewhere the flag is
  /// a no-op and pinned() reports false.  If a worker cannot be started,
  /// the ones already started are stopped and joined and CheckError is
  /// thrown.
  explicit ThreadPool(std::int64_t num_threads, bool pin_to_cores = false);

  /// Drains outstanding tasks, then joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task; throws CheckError after shutdown began.  Callers
  /// must not hold mu_ (kernel task bodies that submit follow-up work
  /// would self-deadlock — see MeasuredBackend's pool interactions).
  void submit(std::function<void()> task) RT3_EXCLUDES(mu_);

  /// Blocks until the task queue is empty AND no worker is mid-task.
  /// A task that threw does not kill its worker: the first captured
  /// exception is rethrown here instead.  Once a task has thrown, workers
  /// drain the remaining queue WITHOUT running task bodies, so the error
  /// surfaces promptly instead of behind a long backlog; the rethrow
  /// clears the poison and the pool is reusable.
  void wait_idle() RT3_EXCLUDES(mu_);

  std::int64_t num_threads() const {
    return static_cast<std::int64_t>(workers_.size());
  }

  /// True when every worker was successfully pinned at construction.
  bool pinned() const { return pinned_; }

 private:
  void worker_loop() RT3_EXCLUDES(mu_);
  bool queue_empty() const RT3_REQUIRES(mu_) {
    return head_ == tasks_.size();
  }
  /// Lets the workers drain the queue and exit, then joins them.
  void stop_and_join() RT3_EXCLUDES(mu_);

  Mutex mu_{"ThreadPool::mu_"};
  CondVar has_work_;
  CondVar idle_;
  /// FIFO queue: tasks_[head_ ..] are pending.  Popped slots are reused
  /// (reset once drained, reclaimed by a full vector before it grows), so
  /// a steady submit/drain cycle allocates nothing once the vector holds
  /// its peak depth; the constructor reserves one slot per worker.
  std::vector<std::function<void()>> tasks_ RT3_GUARDED_BY(mu_);
  std::size_t head_ RT3_GUARDED_BY(mu_) = 0;
  /// Mutated only by the constructing thread (ctor fills, dtor joins);
  /// workers never touch the vector, so it needs no lock.
  std::vector<std::thread> workers_;
  std::exception_ptr first_error_ RT3_GUARDED_BY(mu_);
  std::int64_t active_ RT3_GUARDED_BY(mu_) = 0;
  bool stopping_ RT3_GUARDED_BY(mu_) = false;
  bool pinned_ = false;
};

}  // namespace rt3
