#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <functional>
#include <memory>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "util/random.h"

namespace ldpr {
namespace {

TEST(ThreadPoolTest, ClampsZeroThreadsToOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 1u);
}

TEST(ThreadPoolTest, MemberParallelForCoversEachIndexOnce) {
  ThreadPool pool(4);
  std::vector<int> hits(1000, 0);
  pool.ParallelFor(0, hits.size(), [&hits](size_t i) { ++hits[i]; });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ParallelForTest, CoversEachIndexOnce) {
  for (size_t threads : {1u, 2u, 3u, 8u}) {
    std::vector<int> hits(257, 0);
    ParallelFor(threads, hits.size(), [&hits](size_t i) { ++hits[i]; });
    const int total = std::accumulate(hits.begin(), hits.end(), 0);
    EXPECT_EQ(total, 257) << "threads=" << threads;
    for (int h : hits) ASSERT_EQ(h, 1);
  }
}

TEST(ParallelForTest, MoreThreadsThanWork) {
  std::vector<int> hits(3, 0);
  ParallelFor(16, hits.size(), [&hits](size_t i) { ++hits[i]; });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ParallelForTest, EmptyRangeIsNoop) {
  bool ran = false;
  ParallelFor(4, 0, [&ran](size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ParallelForTest, PropagatesException) {
  EXPECT_THROW(
      ParallelFor(4, 100,
                  [](size_t i) {
                    if (i == 37) throw std::runtime_error("boom");
                  }),
      std::runtime_error);
}

TEST(ParallelForTest, SerialFastPathPreservesCallOrder) {
  std::vector<size_t> order;
  ParallelFor(1, 5, [&order](size_t i) { order.push_back(i); });
  EXPECT_EQ(order, (std::vector<size_t>{0, 1, 2, 3, 4}));
}

TEST(DefaultThreadCountTest, IsAtLeastOne) {
  EXPECT_GE(DefaultThreadCount(), 1u);
}

TEST(DefaultThreadCountDeathTest, RejectsMalformedEnv) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  // setenv runs in the death-test child only.
  EXPECT_DEATH(
      {
        setenv("LDPR_THREADS", "four", 1);
        DefaultThreadCount();
      },
      "LDPR_THREADS must be an integer, got 'four'");
  EXPECT_DEATH(
      {
        setenv("LDPR_THREADS", "4x", 1);
        DefaultThreadCount();
      },
      "LDPR_THREADS must be an integer, got '4x'");
  EXPECT_DEATH(
      {
        setenv("LDPR_THREADS", "", 1);
        DefaultThreadCount();
      },
      "LDPR_THREADS");
  EXPECT_DEATH(
      {
        setenv("LDPR_THREADS", "100000", 1);
        DefaultThreadCount();
      },
      "LDPR_THREADS must be at most 1024, got '100000'");
}

TEST(GlobalThreadPoolTest, IsProcessWideAndReused) {
  ThreadPool& a = GlobalThreadPool();
  ThreadPool& b = GlobalThreadPool();
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(a.num_threads(), DefaultThreadCount());
}

TEST(GlobalThreadPoolTest, NestedParallelForInsidePoolLoopCompletes) {
  // A ParallelFor issued from inside an index of a loop on the global
  // pool neither deadlocks nor waits for the pool to drain: the
  // calling worker claims indices alongside helpers that idle workers
  // pick up, and every index runs exactly once.
  std::vector<int> hits(64, 0);
  GlobalThreadPool().ParallelFor(0, 1, [&hits](size_t) {
    ParallelFor(4, hits.size(), [&hits](size_t i) { ++hits[i]; });
  });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPoolTest, NestedLoopIsHelpedByIdleWorkers) {
  // Index 0 of a loop nested in a one-index outer loop blocks until
  // another thread has started index 1; a nested loop run inline on
  // the calling worker times out here.
  ThreadPool pool(4);
  std::mutex mu;
  std::condition_variable cv;
  bool second_started = false;
  bool helped = false;
  pool.ParallelFor(0, 1, [&](size_t) {
    pool.ParallelFor(0, 2, [&](size_t i) {
      std::unique_lock<std::mutex> lock(mu);
      if (i == 1) {
        second_started = true;
        cv.notify_all();
        return;
      }
      helped = cv.wait_for(lock, std::chrono::seconds(10),
                           [&] { return second_started; });
    });
  });
  EXPECT_TRUE(helped) << "no other thread started index 1 within 10 s";
}

TEST(ThreadPoolTest, ThreeLevelNestingCoversEachIndexOnce) {
  // Every level is wider than the pool, so inner loops queue helpers
  // while every worker is already busy with an outer index.
  ThreadPool pool(3);
  constexpr size_t kWidth = 7;
  std::vector<std::atomic<int>> hits(kWidth * kWidth * kWidth);
  pool.ParallelFor(0, kWidth, [&](size_t a) {
    pool.ParallelFor(0, kWidth, [&](size_t b) {
      pool.ParallelFor(0, kWidth, [&](size_t c) {
        hits[(a * kWidth + b) * kWidth + c].fetch_add(1);
      });
    });
  });
  for (const std::atomic<int>& h : hits) ASSERT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, NestedExceptionFromHelperReachesOuterCaller) {
  // Only a helper throws: an index that lands on the nested loop's
  // calling worker holds it (bounded) until a helper has thrown.
  ThreadPool pool(4);
  std::atomic<bool> helper_threw{false};
  EXPECT_THROW(
      pool.ParallelFor(0, 1,
                       [&](size_t) {
                         const std::thread::id caller =
                             std::this_thread::get_id();
                         pool.ParallelFor(0, 2, [&](size_t) {
                           if (std::this_thread::get_id() != caller) {
                             helper_threw.store(true);
                             throw std::runtime_error("nested boom");
                           }
                           const auto deadline =
                               std::chrono::steady_clock::now() +
                               std::chrono::seconds(10);
                           while (!helper_threw.load() &&
                                  std::chrono::steady_clock::now() < deadline)
                             std::this_thread::yield();
                         });
                       }),
      std::runtime_error);
  EXPECT_TRUE(helper_threw.load());
}

TEST(ThreadPoolTest, LoopReturnsBeforeQueuedHelpersRun) {
  // A two-worker pool runs a two-index outer loop: one index keeps
  // its worker B busy, the other runs a nested loop on worker A whose
  // helper queues while B is busy, so the loop finishes on A and
  // returns before the helper dequeues.  Its fn lives on the heap and
  // is freed as soon as the loop returns: the stale helper must find
  // the loop exhausted and touch nothing else (ASan reports a use
  // after free otherwise).  The pool's destructor runs the helper at
  // the latest.
  std::atomic<bool> loop_returned{false};
  std::atomic<bool> b_busy{false};
  std::atomic<int> ran{0};
  {
    ThreadPool pool(2);
    pool.ParallelFor(0, 2, [&](size_t i) {
      if (i == 0) {
        b_busy.store(true);
        while (!loop_returned.load()) std::this_thread::yield();
        return;
      }
      while (!b_busy.load()) std::this_thread::yield();
      auto fn = std::make_unique<std::function<void(size_t)>>(
          [&ran](size_t) { ran.fetch_add(1); });
      pool.ParallelFor(0, 8, *fn);
      fn.reset();
      loop_returned.store(true);
    });
  }
  EXPECT_EQ(ran.load(), 8);
}

TEST(ParallelForTest, WiderThanPoolCoversEachIndexOnce) {
  // A request wider than the global pool is capped at the pool's size
  // instead of spawning extra threads; every index still runs once.
  const size_t threads = GlobalThreadPool().num_threads() * 4 + 3;
  std::vector<int> hits(1000, 0);
  ParallelFor(threads, hits.size(), [&hits](size_t i) { ++hits[i]; });
  for (int h : hits) ASSERT_EQ(h, 1);
}

TEST(SplitThreadBudgetTest, EveryUnitMayUseWholeBudget) {
  // outer = min(threads, units); inner = the whole budget, since
  // nested loops share whatever workers the other units leave idle.
  EXPECT_EQ(SplitThreadBudget(8, 1).outer, 1u);
  EXPECT_EQ(SplitThreadBudget(8, 1).inner, 8u);
  EXPECT_EQ(SplitThreadBudget(8, 3).outer, 3u);
  EXPECT_EQ(SplitThreadBudget(8, 3).inner, 8u);
  EXPECT_EQ(SplitThreadBudget(4, 100).outer, 4u);
  EXPECT_EQ(SplitThreadBudget(4, 100).inner, 4u);
}

TEST(FanOutTrialsTest, FlatOrderAndIndices) {
  // Unit i = cell * trials + trial comes back in slot i, whatever
  // worker ran it; every unit gets the whole budget for its nested
  // loops.
  struct Unit {
    size_t cell = 0, trial = 0, shards = 0;
  };
  for (size_t threads : {1u, 3u, 8u}) {
    const std::vector<Unit> units = FanOutTrials<Unit>(
        threads, 5, 3, [](size_t cell, size_t trial, size_t shards) {
          return Unit{cell, trial, shards};
        });
    ASSERT_EQ(units.size(), 15u);
    for (size_t i = 0; i < units.size(); ++i) {
      EXPECT_EQ(units[i].cell, i / 3);
      EXPECT_EQ(units[i].trial, i % 3);
      EXPECT_EQ(units[i].shards, threads);
    }
  }
  const std::vector<size_t> single = FanOutTrials<size_t>(
      8, 1, 1, [](size_t, size_t, size_t shards) { return shards; });
  EXPECT_EQ(single, std::vector<size_t>{8});
}

TEST(FanOutTrialsTest, NestedLoopsCoverEachIndexOnce) {
  // Units of a fan-out run nested loops on their full budget; the
  // nested indices all run exactly once.
  std::vector<std::atomic<int>> hits(6 * 40);
  FanOutTrials<int>(4, 3, 2, [&](size_t cell, size_t trial, size_t shards) {
    const size_t unit = cell * 2 + trial;
    ParallelFor(shards, 40,
                [&](size_t i) { hits[unit * 40 + i].fetch_add(1); });
    return 0;
  });
  for (const std::atomic<int>& h : hits) ASSERT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, MemberParallelForHonorsMaxRunners) {
  ThreadPool pool(4);
  // With a single runner the dynamic schedule degenerates to
  // in-order execution.
  std::vector<size_t> order;
  pool.ParallelFor(0, 6, [&order](size_t i) { order.push_back(i); },
                   /*max_runners=*/1);
  EXPECT_EQ(order, (std::vector<size_t>{0, 1, 2, 3, 4, 5}));
}

TEST(ParallelForTest, ReusesGlobalPoolFromTopLevel) {
  // Requests within the global pool's capacity run on its workers;
  // this exercises the persistent-pool fast path (with
  // DefaultThreadCount() == 1 the loop runs inline instead, which is
  // equally correct — the assertion only checks coverage).
  const size_t threads = std::min<size_t>(DefaultThreadCount(), 4);
  std::vector<int> hits(200, 0);
  ParallelFor(threads, hits.size(), [&hits](size_t i) { ++hits[i]; });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(DeriveSeedTest, DeterministicAndStreamSensitive) {
  EXPECT_EQ(DeriveSeed(42, 0), DeriveSeed(42, 0));
  EXPECT_NE(DeriveSeed(42, 0), DeriveSeed(42, 1));
  EXPECT_NE(DeriveSeed(42, 0), DeriveSeed(43, 0));
}

TEST(DeriveSeedTest, AdjacentStreamsAreUncorrelated) {
  // The derived seeds feed Rng constructors; a crude independence
  // check: streams 0..99 of one seed produce distinct values, and the
  // Rngs they seed diverge immediately.
  std::vector<uint64_t> seeds;
  for (uint64_t t = 0; t < 100; ++t) seeds.push_back(DeriveSeed(7, t));
  std::sort(seeds.begin(), seeds.end());
  EXPECT_EQ(std::unique(seeds.begin(), seeds.end()), seeds.end());

  Rng a(DeriveSeed(7, 0));
  Rng b(DeriveSeed(7, 1));
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += (a.Next() == b.Next()) ? 1 : 0;
  EXPECT_EQ(equal, 0);
}

}  // namespace
}  // namespace ldpr
