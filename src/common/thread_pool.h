// Fixed-size worker pool with exception-propagating futures.
//
// The pool exists for coarse-grained, independent work — whole experiment
// runs, not inner-loop parallelism — so the design favors simplicity over
// lock-free cleverness: one mutex-protected FIFO queue feeds all workers.
// submit() returns a std::future for the task's result; an exception thrown
// by the task is captured and rethrown from future::get() with its original
// type, so callers handle worker failures exactly like serial failures.
//
// Destruction drains the queue: every task submitted before the destructor
// runs is executed to completion, then the workers join. Tasks must
// therefore not block on work that is itself still queued behind them.
#pragma once

#include <cstddef>
#include <functional>
#include <future>
#include <memory>
#include <queue>
#include <thread>
#include <type_traits>
#include <vector>

#include "common/annotations.h"
#include "common/mutex.h"

namespace eucon {

class ThreadPool {
 public:
  // num_workers = 0 picks std::thread::hardware_concurrency() (at least 1).
  explicit ThreadPool(std::size_t num_workers = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t num_workers() const { return workers_.size(); }

  // Enqueues `fn` and returns the future for its result. The callable runs
  // exactly once on some worker; exceptions it throws are delivered through
  // the future. Safe to call from multiple threads — but never with the
  // pool's own lock held: re-acquiring mutex_ here would self-deadlock.
  // EUCON_EXCLUDES states that contract, and clang's -Wthread-safety
  // checks it.
  template <typename F>
  auto submit(F&& fn) -> std::future<std::invoke_result_t<std::decay_t<F>>>
      EUCON_EXCLUDES(mutex_) {
    using R = std::invoke_result_t<std::decay_t<F>>;
    // packaged_task is move-only; std::function requires copyable targets,
    // so the task rides in a shared_ptr.
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> future = task->get_future();
    enqueue([task]() { (*task)(); });
    return future;
  }

  // The default worker count submit()/run_batch callers get for "use the
  // whole machine": hardware_concurrency, clamped to at least 1.
  static std::size_t default_workers();

 private:
  void worker_loop() EUCON_EXCLUDES(mutex_);
  // One atomic admission step: takes the lock, refuses (throws via the
  // project's check helpers) when the pool is shutting down, enqueues, and
  // notifies a worker. Keeping the shutdown check and the queue insert
  // under the same critical section means the check can never race the
  // destructor's stopping_ write — there is no unlocked path to stopping_.
  void enqueue(std::function<void()> task) EUCON_EXCLUDES(mutex_);

  mutable Mutex mutex_;
  CondVar wake_;
  std::queue<std::function<void()>> queue_ EUCON_GUARDED_BY(mutex_);
  std::vector<std::thread> workers_;
  bool stopping_ EUCON_GUARDED_BY(mutex_) = false;
};

}  // namespace eucon
