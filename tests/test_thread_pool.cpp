// Multi-threaded tests for the kernel engine's ThreadPool launches: every
// piece runs exactly once, the other threads take a held thread's pieces,
// a throwing piece surfaces from run() and leaves the pool usable, and
// pinning is best-effort.  Assertions are about conservation, never about
// timing, so these are stable on any core count.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "common/check.hpp"
#include "exec/thread_pool.hpp"

namespace rt3 {
namespace {

/// Per-piece run counts of one launch, indexed queue * items + item.
std::vector<std::atomic<std::int64_t>> counters(std::int64_t queues,
                                                std::int64_t items) {
  return std::vector<std::atomic<std::int64_t>>(
      static_cast<std::size_t>(queues * items));
}

void expect_each_ran_once(const std::vector<std::atomic<std::int64_t>>& ran) {
  for (std::size_t i = 0; i < ran.size(); ++i) {
    EXPECT_EQ(ran[i].load(), 1) << "piece " << i;
  }
}

TEST(ThreadPool, EveryLaunchRunsEachPieceExactlyOnce) {
  // Back-to-back launches of every shape a pool admits, each counting its
  // pieces in a frame of its own: a worker still finishing one launch
  // must neither run nor skip a piece of the next.
  for (const std::int64_t workers : {1, 2, 3, 4}) {
    ThreadPool pool(workers);
    EXPECT_EQ(pool.num_threads(), workers);
    for (int rep = 0; rep < 50; ++rep) {
      for (std::int64_t queues = 1; queues <= workers + 1; ++queues) {
        for (const std::int64_t items : {0, 1, 2, 7}) {
          SCOPED_TRACE("workers=" + std::to_string(workers) +
                       " queues=" + std::to_string(queues) +
                       " items=" + std::to_string(items));
          std::vector<std::atomic<std::int64_t>> ran = counters(queues, items);
          pool.run(queues, items, [&](std::int64_t q, std::int64_t i) {
            ran[static_cast<std::size_t>(q * items + i)].fetch_add(1);
          });
          expect_each_ran_once(ran);
        }
      }
    }
  }
}

TEST(ThreadPool, OtherThreadsTakeTheUnclaimedPiecesOfAHeldThread) {
  // Piece 0 of the caller's queue holds its thread until every other
  // piece has run, so the others, its own queue's included, must be run
  // by the other threads.  The 60 s wait only bounds a pool that fails
  // to, so host load cannot fail the check.
  for (const std::int64_t workers : {1, 3}) {
    ThreadPool pool(workers);
    const std::int64_t queues = workers + 1;
    const std::int64_t items = 4;
    std::vector<std::atomic<std::int64_t>> ran = counters(queues, items);
    std::atomic<std::int64_t> done{0};
    bool others_finished = false;
    pool.run(queues, items, [&](std::int64_t q, std::int64_t i) {
      if (q == 0 && i == 0) {
        for (int ms = 0; ms < 60'000 && done.load() < queues * items - 1;
             ++ms) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        others_finished = done.load() == queues * items - 1;
      }
      ran[static_cast<std::size_t>(q * items + i)].fetch_add(1);
      done.fetch_add(1);
    });
    EXPECT_TRUE(others_finished) << "workers=" << workers;
    expect_each_ran_once(ran);
  }
}

TEST(ThreadPool, PieceExceptionReachesTheCallerAndTheNextLaunchRunsAll) {
  // A piece that throws, on the caller's queue or a worker's, surfaces
  // from run() as itself; the pieces not yet started may be skipped, and
  // the next launch runs every piece again.
  ThreadPool pool(3);
  for (const std::int64_t bad_queue : {0, 1, 3}) {
    SCOPED_TRACE("throwing queue " + std::to_string(bad_queue));
    try {
      pool.run(4, 5, [&](std::int64_t q, std::int64_t i) {
        if (q == bad_queue && i == 2) {
          throw CheckError("piece " + std::to_string(q) + "/2 failed");
        }
      });
      ADD_FAILURE() << "the throwing piece was swallowed";
    } catch (const CheckError& e) {
      EXPECT_NE(std::string(e.what()).find(
                    "piece " + std::to_string(bad_queue) + "/2 failed"),
                std::string::npos)
          << e.what();
    }
    std::vector<std::atomic<std::int64_t>> ran = counters(4, 5);
    pool.run(4, 5, [&](std::int64_t q, std::int64_t i) {
      ran[static_cast<std::size_t>(q * 5 + i)].fetch_add(1);
    });
    expect_each_ran_once(ran);
  }
}

TEST(ThreadPool, RejectsALaunchWiderThanItsThreads) {
  ThreadPool pool(2);
  const auto nothing = [](std::int64_t, std::int64_t) {};
  EXPECT_THROW(pool.run(4, 1, nothing), CheckError);
  EXPECT_THROW(pool.run(0, 1, nothing), CheckError);
  EXPECT_THROW(pool.run(2, -1, nothing), CheckError);
  pool.run(3, 1, nothing);  // caller + 2 workers
}

TEST(ThreadPool, PinFlagIsBestEffortAndHarmless) {
  ThreadPool unpinned(2);
  EXPECT_FALSE(unpinned.pinned());
  ThreadPool pinned(2, /*pin_to_cores=*/true);
#if defined(__linux__)
  EXPECT_TRUE(pinned.pinned());
#endif
  std::vector<std::atomic<std::int64_t>> ran = counters(3, 33);
  pinned.run(3, 33, [&](std::int64_t q, std::int64_t i) {
    ran[static_cast<std::size_t>(q * 33 + i)].fetch_add(1);
  });
  expect_each_ran_once(ran);
}

}  // namespace
}  // namespace rt3
