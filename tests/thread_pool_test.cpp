#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <set>
#include <stdexcept>
#include <vector>

#include "common/check.h"

namespace eucon {
namespace {

TEST(ThreadPoolTest, DefaultWorkerCountIsAtLeastOne) {
  EXPECT_GE(ThreadPool::default_workers(), 1u);
  ThreadPool pool;
  EXPECT_GE(pool.num_workers(), 1u);
}

TEST(ThreadPoolTest, SubmitReturnsValue) {
  ThreadPool pool(2);
  auto f = pool.submit([] { return 21 * 2; });
  EXPECT_EQ(f.get(), 42);
}

TEST(ThreadPoolTest, RunsManyTasksExactlyOnce) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::vector<std::future<int>> futures;
  const int kTasks = 200;
  futures.reserve(kTasks);
  for (int i = 0; i < kTasks; ++i)
    futures.push_back(pool.submit([&counter, i] {
      counter.fetch_add(1, std::memory_order_relaxed);
      return i;
    }));
  std::set<int> seen;
  for (auto& f : futures) seen.insert(f.get());
  EXPECT_EQ(counter.load(), kTasks);
  EXPECT_EQ(seen.size(), static_cast<std::size_t>(kTasks));
}

TEST(ThreadPoolTest, ExceptionPropagatesWithOriginalType) {
  std::future<int> f;
  std::future<int> g;
  {
    ThreadPool pool(2);
    f = pool.submit([]() -> int { EUCON_FAIL_INVALID("bad task input"); });
    g = pool.submit([]() -> int { EUCON_FAIL("task blew up"); });
  }
  // The pool has joined its workers, so neither still holds a reference to
  // a task: the futures own the stored exceptions alone. A worker dropping
  // the last reference frees the exception through an atomic refcount in
  // the uninstrumented runtime, which TSan would report as a race with
  // e.what() below.
  EXPECT_THROW(f.get(), std::invalid_argument);
  try {
    g.get();
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "task blew up");
  }
}

TEST(ThreadPoolTest, FailedTaskDoesNotPoisonPool) {
  ThreadPool pool(1);
  auto bad = pool.submit([]() -> int { EUCON_FAIL("first fails"); });
  auto good = pool.submit([] { return 7; });
  EXPECT_THROW(bad.get(), std::runtime_error);
  EXPECT_EQ(good.get(), 7);
}

TEST(ThreadPoolTest, TeardownDrainsQueuedTasks) {
  std::atomic<int> done{0};
  const int kTasks = 50;
  {
    ThreadPool pool(2);
    for (int i = 0; i < kTasks; ++i)
      pool.submit([&done] {
        // Deliberate stall to leave tasks queued at destruction time.
        std::this_thread::sleep_for(  // eucon-lint: allow(blocking-in-callback)
            std::chrono::milliseconds(1));
        done.fetch_add(1, std::memory_order_relaxed);
      });
    // Destructor must run every queued task to completion before joining.
  }
  EXPECT_EQ(done.load(), kTasks);
}

TEST(ThreadPoolTest, VoidTasksWork) {
  ThreadPool pool(2);
  std::atomic<bool> ran{false};
  auto f = pool.submit([&ran] { ran.store(true); });
  f.get();
  EXPECT_TRUE(ran.load());
}

TEST(ThreadPoolTest, ShutdownCheckIsAtomicWithAdmission) {
  // TSan regression for the shutdown/submit race: producers hammer submit()
  // while the destructor runs. Admission must check stopping_ and insert
  // into the queue under one critical section, so every submit either lands
  // a task (which teardown then drains) or throws std::invalid_argument —
  // and TSan (check.sh --tsan) sees no unlocked read of stopping_.
  //
  // A blocker task pins the destructor inside its join until the producers
  // have been joined, so no producer can touch the pool after its members
  // are gone (the destructor cannot finish while the blocker spins). The
  // producers work through a raw pointer captured before the race starts;
  // only the destroyer thread touches the unique_ptr itself.
  for (int round = 0; round < 4; ++round) {
    std::atomic<bool> release{false};
    std::atomic<int> accepted{0};
    std::atomic<int> refused{0};
    auto pool = std::make_unique<ThreadPool>(2);
    ThreadPool* const raw = pool.get();
    raw->submit([&release] {
      while (!release.load())
        std::this_thread::sleep_for(  // eucon-lint: allow(blocking-in-callback)
            std::chrono::microseconds(50));
    });

    std::vector<std::thread> producers;  // eucon-lint: allow(detached-thread)
    producers.reserve(3);
    for (int t = 0; t < 3; ++t) {
      producers.emplace_back([raw, &accepted, &refused] {
        for (int i = 0; i < 100; ++i) {
          try {
            raw->submit([] {});
            accepted.fetch_add(1, std::memory_order_relaxed);
          } catch (const std::invalid_argument&) {
            refused.fetch_add(1, std::memory_order_relaxed);
          }
        }
      });
    }

    std::thread destroyer(  // eucon-lint: allow(detached-thread)
        [&pool] { pool.reset(); });
    for (auto& p : producers) p.join();
    release.store(true);
    destroyer.join();
    // Every attempt resolved one way or the other; no task was lost in the
    // check-then-insert window and no submit slipped past a stopped pool.
    EXPECT_EQ(accepted.load() + refused.load(), 300);
  }
}

TEST(ThreadPoolTest, SubmitFromMultipleThreads) {
  ThreadPool pool(3);
  std::atomic<int> counter{0};
  // Raw threads on purpose: the test exercises concurrent *producers*, so
  // the contention source must live outside the pool under test.
  std::vector<std::thread> producers;  // eucon-lint: allow(detached-thread)
  producers.reserve(4);
  for (int t = 0; t < 4; ++t) {
    producers.emplace_back([&pool, &counter] {
      std::vector<std::future<void>> fs;
      fs.reserve(25);
      for (int i = 0; i < 25; ++i)
        fs.push_back(pool.submit(
            [&counter] { counter.fetch_add(1, std::memory_order_relaxed); }));
      for (auto& f : fs) f.get();
    });
  }
  for (auto& p : producers) p.join();
  EXPECT_EQ(counter.load(), 100);
}

}  // namespace
}  // namespace eucon
