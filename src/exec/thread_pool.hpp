// Fixed-size worker pool behind the kernel engine (kernels.hpp): it runs
// launches, nothing else.  A launch is a grid of pieces in home queues,
// one per thread that takes part; the calling thread is thread 0 and
// worker i is thread i + 1.  Thread t claims the pieces of queue t first,
// then the unclaimed pieces of the other queues, so a launch ends at the
// threads' combined pace and a thread that wakes late finds nothing left.
#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <memory>
#include <thread>
#include <vector>

#include "common/lockdep.hpp"
#include "common/thread_annotations.hpp"

namespace rt3 {

class ThreadPool {
 public:
  /// One launch: `queues` home queues of `items` pieces each, and the
  /// function that runs piece `item` of queue `queue`.  `ctx` is passed
  /// through to `run` and is only read while a piece runs.
  struct Launch {
    std::int64_t queues = 0;
    std::int64_t items = 0;
    void (*run)(const void* ctx, std::int64_t queue,
                std::int64_t item) = nullptr;
    const void* ctx = nullptr;
  };

  /// Spawns `num_threads` workers (>= 1).  With `pin_to_cores`, worker i
  /// is pinned to hardware core i % hardware_concurrency (Linux,
  /// best-effort) so kernel workers keep their per-core L1/L2 warm and
  /// latency samples stop paying migration jitter; elsewhere the flag is
  /// a no-op and pinned() reports false.  If a worker cannot be started,
  /// the ones already started are stopped and joined and CheckError is
  /// thrown.
  explicit ThreadPool(std::int64_t num_threads, bool pin_to_cores = false);

  /// Joins all workers; a launch must not be running.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Runs every piece of `launch` exactly once and returns when all have
  /// run.  The caller publishes the launch, wakes every worker once and
  /// runs as thread 0; threads t >= launch.queues take no part.  The
  /// caller's join spins briefly, then sleeps until the last piece is
  /// done; no worker spins.  If a piece throws, the pieces not yet
  /// started are skipped and the first exception is rethrown here; the
  /// pool stays usable.  One launch at a time: launches from different
  /// threads must not overlap, and a piece must not launch on its pool.
  /// Needs 1 <= queues <= num_threads() + 1 and items < 2^31.
  void run(const Launch& launch) RT3_EXCLUDES(mu_);

  /// run() over a callable piece(queue, item); allocates nothing.
  template <class Piece>
  void run(std::int64_t queues, std::int64_t items, const Piece& piece) {
    run(Launch{queues, items,
               [](const void* ctx, std::int64_t queue, std::int64_t item) {
                 (*static_cast<const Piece*>(ctx))(queue, item);
               },
               &piece});
  }

  std::int64_t num_threads() const {
    return static_cast<std::int64_t>(workers_.size());
  }

  /// True when every worker was successfully pinned at construction.
  bool pinned() const { return pinned_; }

 private:
  /// Claim cursor of one home queue, on its own cache line: the launch
  /// tag in the high 32 bits, the next unclaimed item in the low 32.
  struct alignas(64) Cursor {
    std::atomic<std::uint64_t> word{0};
  };

  void worker_loop(std::int64_t thread) RT3_EXCLUDES(mu_);
  /// Thread `thread`'s part of the launch tagged `tag`: claims and runs
  /// pieces until every queue is drained, then counts them off `pending_`
  /// (waking the caller if they were the last).  Touches launch.ctx only
  /// through a piece it claimed.
  void take_part(const Launch& launch, std::uint64_t tag,
                 std::int64_t thread) RT3_EXCLUDES(mu_);
  /// Lets the workers exit, then joins them.
  void stop_and_join() RT3_EXCLUDES(mu_);

  Mutex mu_{"ThreadPool::mu_"};
  CondVar has_work_;
  CondVar done_;
  /// The current launch and its number; a worker takes part in each
  /// launch it sees under mu_.
  Launch launch_ RT3_GUARDED_BY(mu_);
  std::uint64_t epoch_ RT3_GUARDED_BY(mu_) = 0;
  bool stopping_ RT3_GUARDED_BY(mu_) = false;
  /// One cursor per thread (num_threads() + 1), reset by each launch.
  std::unique_ptr<Cursor[]> cursors_;
  /// Pieces of the current launch not yet counted off.
  std::atomic<std::int64_t> pending_{0};
  /// Set by the first piece that throws; error_ is written once, before
  /// its thread counts off, and read by the caller after the join.
  std::atomic<bool> failed_{false};
  std::exception_ptr error_;
  /// Mutated only by the constructing thread (ctor fills, dtor joins);
  /// workers never touch the vector, so it needs no lock.
  std::vector<std::thread> workers_;
  bool pinned_ = false;
};

}  // namespace rt3
