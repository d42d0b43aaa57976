// Fixed-size worker thread pool, the ParallelFor helper, and the one
// (cell x trial) fan-out every trial grid in the repo runs through.
//
// Public contract (see also docs/architecture.md):
//
//  - ParallelFor is the pool's one entry point: the member form runs
//    an index range on the pool's workers, and the free form runs on
//    the process-wide pool.  Both block until every index is done.
//
//  - ParallelFor(threads, n, fn) runs fn(0) ... fn(n-1) with dynamic
//    (work-stealing counter) scheduling.  Callers own determinism:
//    every index must write only its own output slot, and any
//    randomness must be derived from the index (see DeriveSeed in
//    util/random.h), never from execution order.  Under that
//    contract results are bit-identical at any thread count,
//    including the serial threads <= 1 fast path.
//
//  - The first exception thrown by any index is captured and
//    rethrown on the calling thread once every index has finished.
//
//  - Each ParallelFor call keeps its own index counter and done
//    count and waits on that count, never on the pool as a whole, so
//    loops may nest: a loop issued from inside an index of another
//    loop — e.g. shard-level aggregation inside a trial-level fan-out
//    — queues helper tasks that idle workers pick up while the caller
//    claims indices itself.  A caller runs indices only when it is a
//    worker of the pool the loop runs on; any other caller just waits,
//    so a pool of N never has more than N busy threads.  Which thread
//    runs an index never affects results (the determinism contract
//    above).
//
//  - The free ParallelFor reuses one process-wide lazily-created
//    pool (GlobalThreadPool()), so many small parallel loops pay
//    thread-spawn cost once.
//
// Thread count resolution: an explicit count wins; 0 means "auto",
// which honors the LDPR_THREADS environment variable (a whole integer
// up to kMaxThreads; anything else aborts naming the variable) and
// falls back to std::thread::hardware_concurrency().

#ifndef LDPR_UTIL_THREAD_POOL_H_
#define LDPR_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace ldpr {

class ThreadPool {
 public:
  /// Spawns `num_threads` workers (at least 1).
  explicit ThreadPool(size_t num_threads);

  /// Runs what is queued, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_threads() const { return workers_.size(); }

  /// Runs fn(begin) ... fn(end-1) across the pool's workers and
  /// blocks until all indices are done.  Rethrows the first
  /// exception any index threw.  `max_runners` caps how many threads
  /// run indices of this loop (0 = the pool's size), counting the
  /// caller when it is one of this pool's workers, so a shared pool
  /// can serve a caller that asked for fewer threads than it holds.
  /// Safe to call from inside an index of a loop on this pool (see
  /// the file header).
  void ParallelFor(size_t begin, size_t end,
                   const std::function<void(size_t)>& fn,
                   size_t max_runners = 0);

 private:
  /// Enqueues one ParallelFor helper task; it must not throw.
  void Submit(std::function<void()> task);
  void WorkerLoop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> queue_;
  std::mutex mu_;
  std::condition_variable task_cv_;  // signals workers: task or stop
  bool stop_ = false;
};

/// The largest thread count LDPR_THREADS and any --threads flag
/// accept: a pool spawns every worker up front, so a typo such as
/// 100000 would otherwise ask the OS for that many threads.
inline constexpr size_t kMaxThreads = 1024;

/// LDPR_THREADS if set (clamped to >= 1; a value that is not a whole
/// integer, or is above kMaxThreads, aborts with a message naming the
/// variable), else hardware concurrency, else 1.  This is the pool
/// size every "0 = auto" caller gets.
size_t DefaultThreadCount();

/// The process-wide pool the free ParallelFor schedules on, created
/// lazily with DefaultThreadCount() workers on first use (so
/// LDPR_THREADS is read once, at first parallel work).  Thread-safe;
/// the workers idle between parallel regions and join at process
/// exit.
ThreadPool& GlobalThreadPool();

/// How one worker-thread budget serves n parallel units: `outer` =
/// min(threads, n) workers fan the units out, and every unit may use
/// `inner` = the whole budget for its own nested loops, which share
/// whatever workers the other units leave idle.  `num_threads` 0
/// means auto (DefaultThreadCount()).  The split never affects
/// results, only how many threads may serve each level.
struct ThreadBudget {
  size_t outer;
  size_t inner;
};
ThreadBudget SplitThreadBudget(size_t num_threads, size_t n);

/// Parallel loop: runs fn(0) ... fn(n-1) on up to `num_threads`
/// threads of GlobalThreadPool() (0 = DefaultThreadCount(); a wider
/// request is capped at the pool's size).  Runs inline, in index
/// order, when num_threads <= 1 or n <= 1.  Blocks until done and
/// rethrows the first exception.
void ParallelFor(size_t num_threads, size_t n,
                 const std::function<void(size_t)>& fn);

/// The (cell x trial) fan-out: runs fn(cell, trial, shards) for every
/// cell < cells and trial < trials as one flat ParallelFor over
/// i = cell * trials + trial on `num_threads` workers (0 = auto), where
/// `shards` is each unit's budget for its within-trial loops
/// (SplitThreadBudget: the whole budget).  Results come back in flat
/// order; callers derive each unit's seed from (cell, trial) and merge
/// per cell in trial order, which keeps the output bit-identical at any
/// thread count.
template <typename Result, typename Fn>
std::vector<Result> FanOutTrials(size_t num_threads, size_t cells,
                                 size_t trials, const Fn& fn) {
  const size_t total = cells * trials;
  const ThreadBudget budget = SplitThreadBudget(num_threads, total);
  std::vector<Result> results(total);
  ParallelFor(budget.outer, total, [&](size_t i) {
    results[i] = fn(i / trials, i % trials, budget.inner);
  });
  return results;
}

}  // namespace ldpr

#endif  // LDPR_UTIL_THREAD_POOL_H_
