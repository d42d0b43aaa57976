#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "util/random.h"

namespace ldpr {
namespace {

TEST(ThreadPoolTest, RunsEverySubmittedTask) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, WaitIsReusable) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  pool.Submit([&counter] { counter.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(counter.load(), 1);
  pool.Submit([&counter] { counter.fetch_add(1); });
  pool.Submit([&counter] { counter.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(counter.load(), 3);
}

TEST(ThreadPoolTest, DestructorDrainsQueue) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) {
      pool.Submit([&counter] { counter.fetch_add(1); });
    }
  }
  EXPECT_EQ(counter.load(), 50);
}

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

TEST(GlobalThreadPoolTest, IsProcessWideAndReused) {
  ThreadPool& a = GlobalThreadPool();
  ThreadPool& b = GlobalThreadPool();
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(a.num_threads(), DefaultThreadCount());
}

TEST(GlobalThreadPoolTest, WorkerFlagIsVisibleInsideTasksOnly) {
  EXPECT_FALSE(InThreadPoolWorker());
  std::atomic<int> inside{-1};
  GlobalThreadPool().Submit(
      [&inside] { inside.store(InThreadPoolWorker() ? 1 : 0); });
  GlobalThreadPool().Wait();
  EXPECT_EQ(inside.load(), 1);
  EXPECT_FALSE(InThreadPoolWorker());
}

TEST(GlobalThreadPoolTest, NestedParallelForInsidePoolTaskCompletes) {
  // A ParallelFor issued from inside a pool task must not re-enter
  // the pool it runs on (deadlock); it runs inline on the calling
  // worker, in index order.
  std::vector<size_t> order;
  std::vector<std::thread::id> runners;
  std::thread::id worker;
  GlobalThreadPool().Submit([&] {
    worker = std::this_thread::get_id();
    ParallelFor(4, 64, [&](size_t i) {
      order.push_back(i);
      runners.push_back(std::this_thread::get_id());
    });
  });
  GlobalThreadPool().Wait();
  std::vector<size_t> expected(64);
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(order, expected);
  for (const std::thread::id& id : runners) EXPECT_EQ(id, worker);
}

TEST(ParallelForTest, WiderThanPoolCoversEachIndexOnce) {
  // A request wider than the global pool is capped at the pool's size
  // instead of spawning extra threads; every index still runs once.
  const size_t threads = GlobalThreadPool().num_threads() * 4 + 3;
  std::vector<int> hits(1000, 0);
  ParallelFor(threads, hits.size(), [&hits](size_t i) { ++hits[i]; });
  for (int h : hits) ASSERT_EQ(h, 1);
}

TEST(SplitThreadBudgetTest, SingleUnitTakesWholeBudget) {
  EXPECT_EQ(SplitThreadBudget(8, 1).outer, 1u);
  EXPECT_EQ(SplitThreadBudget(8, 1).inner, 8u);
  EXPECT_EQ(SplitThreadBudget(8, 3).outer, 3u);
  EXPECT_EQ(SplitThreadBudget(8, 3).inner, 1u);
  EXPECT_EQ(SplitThreadBudget(4, 100).outer, 4u);
  EXPECT_EQ(SplitThreadBudget(4, 100).inner, 1u);
}

TEST(FanOutTrialsTest, FlatOrderAndIndices) {
  // Unit i = cell * trials + trial comes back in slot i, whatever
  // worker ran it; several units run their nested loops serially.
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
      EXPECT_EQ(units[i].shards, 1u);
    }
  }
  const std::vector<size_t> single = FanOutTrials<size_t>(
      8, 1, 1, [](size_t, size_t, size_t shards) { return shards; });
  EXPECT_EQ(single, std::vector<size_t>{8});
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
