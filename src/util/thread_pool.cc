#include "util/thread_pool.h"

#include <atomic>
#include <cstdlib>
#include <exception>
#include <utility>

#include "util/logging.h"

namespace ldpr {

namespace {
// The pool whose WorkerLoop owns this thread (null on non-worker
// threads).  Lets the free ParallelFor run nested calls inline (see
// the header) and lets Wait() trap same-pool re-entry, the one call
// shape that deadlocks.
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
    ++in_flight_;
  }
  task_cv_.notify_one();
}

void ThreadPool::Wait() {
  // Waiting on the pool from inside one of its own tasks deadlocks:
  // in_flight_ includes the calling task, so it can never reach 0.
  LDPR_CHECK(t_worker_pool != this);
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [this] { return in_flight_ == 0; });
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
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (--in_flight_ == 0) idle_cv_.notify_all();
    }
  }
}

void ThreadPool::ParallelFor(size_t begin, size_t end,
                             const std::function<void(size_t)>& fn,
                             size_t max_runners) {
  if (begin >= end) return;
  const size_t n = end - begin;

  // Dynamic scheduling: each runner task pulls the next index off a
  // shared counter, so uneven per-index cost balances automatically.
  // Wait() below guarantees every runner finishes before this frame
  // unwinds, so the shared state lives on the stack.
  std::atomic<size_t> next{begin};
  std::exception_ptr error;
  std::mutex error_mu;

  size_t runners = n < num_threads() ? n : num_threads();
  if (max_runners != 0 && max_runners < runners) runners = max_runners;
  for (size_t r = 0; r < runners; ++r) {
    Submit([&next, &error, &error_mu, end, &fn] {
      for (;;) {
        const size_t i = next.fetch_add(1);
        if (i >= end) return;
        try {
          fn(i);
        } catch (...) {
          std::unique_lock<std::mutex> lock(error_mu);
          if (!error) error = std::current_exception();
        }
      }
    });
  }
  Wait();
  if (error) std::rethrow_exception(error);
}

size_t DefaultThreadCount() {
  const char* env = std::getenv("LDPR_THREADS");
  if (env != nullptr) {
    const long v = std::atol(env);
    return v < 1 ? 1 : static_cast<size_t>(v);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw < 1 ? 1 : static_cast<size_t>(hw);
}

ThreadBudget SplitThreadBudget(size_t num_threads, size_t n) {
  if (num_threads == 0) num_threads = DefaultThreadCount();
  if (n <= 1) return {1, num_threads};
  return {num_threads < n ? num_threads : n, 1};
}

ThreadPool& GlobalThreadPool() {
  static ThreadPool pool(DefaultThreadCount());
  return pool;
}

bool InThreadPoolWorker() { return t_worker_pool != nullptr; }

void ParallelFor(size_t num_threads, size_t n,
                 const std::function<void(size_t)>& fn) {
  if (num_threads == 0) num_threads = DefaultThreadCount();
  if (num_threads <= 1 || n <= 1 || InThreadPoolWorker()) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  GlobalThreadPool().ParallelFor(0, n, fn, /*max_runners=*/num_threads);
}

}  // namespace ldpr
