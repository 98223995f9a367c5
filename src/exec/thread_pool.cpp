#include "exec/thread_pool.hpp"

#include <algorithm>
#include <string>
#include <system_error>
#include <utility>

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

#include "common/check.hpp"

namespace rt3 {
namespace {

/// Spin-wait budget, in cpu_relax() calls, before the caller's join
/// sleeps: ~100 us on a current x86 core, less where pause is cheaper.
/// Workers never spin, so an idle pool burns no CPU.
constexpr std::int64_t kJoinSpins = 1 << 12;

constexpr std::uint64_t kItemMask = 0xFFFFFFFFULL;

/// Tells the core this thread is spin-waiting (x86 pause, arm yield).
inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

/// Claims the next item of a cursor still tagged `tag`; false once the
/// queue is drained or the cursor belongs to a later launch.  A CAS, not
/// a fetch_add, so a thread still holding an earlier launch can never
/// consume an item of the current one.
bool claim(std::atomic<std::uint64_t>& cursor, std::uint64_t tag,
           std::int64_t items, std::int64_t& item) {
  std::uint64_t word = cursor.load(std::memory_order_relaxed);
  while ((word >> 32) == tag &&
         static_cast<std::int64_t>(word & kItemMask) < items) {
    if (cursor.compare_exchange_weak(word, word + 1,
                                     std::memory_order_relaxed)) {
      item = static_cast<std::int64_t>(word & kItemMask);
      return true;
    }
  }
  return false;
}

}  // namespace

ThreadPool::ThreadPool(std::int64_t num_threads, bool pin_to_cores) {
  check(num_threads >= 1, "ThreadPool: need at least one thread");
  cursors_ = std::make_unique<Cursor[]>(static_cast<std::size_t>(num_threads) +
                                        1);
  workers_.reserve(static_cast<std::size_t>(num_threads));
  const unsigned cores = std::max(1U, std::thread::hardware_concurrency());
  pinned_ = pin_to_cores;
  for (std::int64_t i = 0; i < num_threads; ++i) {
    try {
      workers_.emplace_back([this, i] { worker_loop(i + 1); });
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

void ThreadPool::run(const Launch& launch) {
  check(launch.queues >= 1 && launch.queues <= num_threads() + 1 &&
            launch.items >= 0 &&
            launch.items < static_cast<std::int64_t>(kItemMask >> 1),
        "ThreadPool: launch shape out of range");
  std::uint64_t tag = 0;
  {
    MutexLock lock(mu_);
    tag = ++epoch_ & kItemMask;
    launch_ = launch;
    for (std::int64_t q = 0; q < launch.queues; ++q) {
      cursors_[static_cast<std::size_t>(q)].word.store(
          tag << 32, std::memory_order_relaxed);
    }
    pending_.store(launch.queues * launch.items, std::memory_order_relaxed);
    failed_.store(false, std::memory_order_relaxed);
    error_ = nullptr;
  }
  has_work_.notify_all();
  take_part(launch, tag, 0);
  // The workers' pieces are as long as ours, so they finish about now:
  // spin briefly rather than pay a sleep/wake round trip, and sleep if a
  // worker was descheduled.
  std::int64_t spins = 0;
  while (pending_.load(std::memory_order_acquire) != 0) {
    if (++spins > kJoinSpins) {
      UniqueLock lock(mu_);
      while (pending_.load(std::memory_order_acquire) != 0) {
        done_.wait(lock);
      }
      break;
    }
    cpu_relax();
  }
  if (failed_.load(std::memory_order_relaxed)) {
    std::rethrow_exception(std::exchange(error_, nullptr));
  }
}

void ThreadPool::take_part(const Launch& launch, std::uint64_t tag,
                           std::int64_t thread) {
  std::int64_t ran = 0;
  for (std::int64_t v = 0; v < launch.queues; ++v) {
    const std::int64_t queue = (thread + v) % launch.queues;
    std::atomic<std::uint64_t>& cursor =
        cursors_[static_cast<std::size_t>(queue)].word;
    std::int64_t item = 0;
    while (claim(cursor, tag, launch.items, item)) {
      ++ran;
      // After a failure the rest is poison: count pieces off unrun so
      // the error surfaces promptly.
      if (failed_.load(std::memory_order_relaxed)) {
        continue;
      }
      try {
        launch.run(launch.ctx, queue, item);
      } catch (...) {
        if (!failed_.exchange(true, std::memory_order_relaxed)) {
          error_ = std::current_exception();
        }
      }
    }
  }
  if (ran > 0 &&
      pending_.fetch_sub(ran, std::memory_order_acq_rel) == ran &&
      thread != 0) {
    // Last to finish: wake the caller if it gave up spinning.  Taking
    // mu_ orders this after the caller's check in its wait loop.
    { MutexLock lock(mu_); }
    done_.notify_one();
  }
}

void ThreadPool::worker_loop(std::int64_t thread) {
  std::uint64_t seen = 0;
  for (;;) {
    Launch launch;
    {
      UniqueLock lock(mu_);
      while (!stopping_ && epoch_ == seen) {
        has_work_.wait(lock);
      }
      if (stopping_) {
        return;
      }
      seen = epoch_;
      launch = launch_;
    }
    if (thread < launch.queues) {
      take_part(launch, seen & kItemMask, thread);
    }
  }
}

}  // namespace rt3
