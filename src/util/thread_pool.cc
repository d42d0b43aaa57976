#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdlib>
#include <exception>
#include <memory>
#include <string>
#include <utility>

#include "util/logging.h"
#include "util/status.h"

namespace ldpr {

namespace {
// The pool whose WorkerLoop owns this thread (null on non-worker
// threads).  Lets ParallelFor tell a caller that can run indices
// itself from one that only waits.
thread_local const ThreadPool* t_worker_pool = nullptr;
}  // namespace

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads < 1) num_threads = 1;
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    stop_ = true;
  }
  task_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::unique_lock<std::mutex> lock(mu_);
    LDPR_CHECK(!stop_);
    queue_.push(std::move(task));
  }
  task_cv_.notify_one();
}

void ThreadPool::WorkerLoop() {
  t_worker_pool = this;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      task_cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ set and nothing left to run
      task = std::move(queue_.front());
      queue_.pop();
    }
    task();
  }
}

namespace {

// The shared state of one ThreadPool::ParallelFor call.  Helper tasks
// hold it by shared_ptr, so a helper that dequeues after the loop has
// returned still finds a live, exhausted counter; `fn` is only
// touched for a claimed index, and the loop returns only after every
// claimed index is done, so the reference outlives every call to it.
struct LoopState {
  LoopState(size_t begin, size_t end, const std::function<void(size_t)>& fn)
      : next(begin), end(end), fn(fn) {}

  // Claims and runs indices until none are left.
  void Run() {
    size_t ran = 0;
    for (;;) {
      const size_t i = next.fetch_add(1);
      if (i >= end) break;
      try {
        fn(i);
      } catch (...) {
        std::unique_lock<std::mutex> lock(mu);
        if (!error) error = std::current_exception();
      }
      ++ran;
    }
    if (ran == 0) return;
    std::unique_lock<std::mutex> lock(mu);
    done += ran;
    done_cv.notify_all();
  }

  std::atomic<size_t> next;
  const size_t end;
  const std::function<void(size_t)>& fn;
  std::mutex mu;
  std::condition_variable done_cv;
  size_t done = 0;           // indices finished; guarded by mu
  std::exception_ptr error;  // the first exception; guarded by mu
};

}  // namespace

void ThreadPool::ParallelFor(size_t begin, size_t end,
                             const std::function<void(size_t)>& fn,
                             size_t max_runners) {
  if (begin >= end) return;
  const size_t n = end - begin;
  size_t runners = n < num_threads() ? n : num_threads();
  if (max_runners != 0 && max_runners < runners) runners = max_runners;

  // Dynamic scheduling: every runner pulls the next index off the
  // loop's counter, so uneven per-index cost balances automatically.
  // A caller that is one of this pool's workers is itself a runner; any
  // other caller only waits, so the pool never has more than
  // num_threads() busy threads.
  const auto loop = std::make_shared<LoopState>(begin, end, fn);
  const bool caller_runs = t_worker_pool == this;
  for (size_t r = caller_runs ? 1 : 0; r < runners; ++r) {
    Submit([loop] { loop->Run(); });
  }
  if (caller_runs) loop->Run();

  std::unique_lock<std::mutex> lock(loop->mu);
  loop->done_cv.wait(lock, [&loop, n] { return loop->done == n; });
  if (loop->error) std::rethrow_exception(loop->error);
}

size_t DefaultThreadCount() {
  const char* env = std::getenv("LDPR_THREADS");
  if (env != nullptr) {
    // Parsed strictly: a value that is not a whole integer is a
    // misconfiguration, not a request for one thread.
    char* rest = nullptr;
    errno = 0;
    const long long v = std::strtoll(env, &rest, 10);
    if (*env == '\0' || *rest != '\0' || errno != 0) {
      LDPR_CHECK_OK(InvalidArgumentError(
          "LDPR_THREADS must be an integer, got '" + std::string(env) + "'"));
    }
    if (v > static_cast<long long>(kMaxThreads)) {
      LDPR_CHECK_OK(InvalidArgumentError(
          "LDPR_THREADS must be at most " + std::to_string(kMaxThreads) +
          ", got '" + std::string(env) + "'"));
    }
    return v < 1 ? 1 : static_cast<size_t>(v);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw < 1 ? 1 : static_cast<size_t>(hw);
}

ThreadBudget SplitThreadBudget(size_t num_threads, size_t n) {
  if (num_threads == 0) num_threads = DefaultThreadCount();
  return {std::min(num_threads, std::max<size_t>(n, 1)), num_threads};
}

ThreadPool& GlobalThreadPool() {
  static ThreadPool pool(DefaultThreadCount());
  return pool;
}

void ParallelFor(size_t num_threads, size_t n,
                 const std::function<void(size_t)>& fn) {
  if (num_threads == 0) num_threads = DefaultThreadCount();
  if (num_threads <= 1 || n <= 1) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  GlobalThreadPool().ParallelFor(0, n, fn, /*max_runners=*/num_threads);
}

}  // namespace ldpr
