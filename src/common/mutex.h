// Annotated mutex primitives for clang thread-safety analysis.
//
// libstdc++ ships std::mutex and its RAII helpers without capability
// annotations, which leaves -Wthread-safety blind to them. These thin
// wrappers restore visibility: Mutex is a capability, MutexLock is a
// scoped acquire/release, CondVar waits through a MutexLock. On GCC the
// annotations vanish and the wrappers compile down to the std types they
// hold — no extra state, no extra locking.
#pragma once

#include <condition_variable>
#include <mutex>

#include "common/annotations.h"

namespace eucon {

class CondVar;
class MutexLock;

class EUCON_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() EUCON_ACQUIRE() { m_.lock(); }
  void unlock() EUCON_RELEASE() { m_.unlock(); }
  bool try_lock() EUCON_TRY_ACQUIRE(true) { return m_.try_lock(); }

 private:
  friend class CondVar;
  friend class MutexLock;
  std::mutex m_;
};

// Scoped lock over a Mutex. Built on std::unique_lock so CondVar can
// release/reacquire it during waits; from the analysis's point of view the
// capability is held from construction to destruction (the temporary
// release inside a wait is invisible, the standard treatment).
class EUCON_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) EUCON_ACQUIRE(mu) : lock_(mu.m_) {}
  ~MutexLock() EUCON_RELEASE() {}

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  friend class CondVar;
  std::unique_lock<std::mutex> lock_;
};

class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  // Atomically releases `lock`'s mutex and blocks; the mutex is reacquired
  // before returning. Spurious wakeups happen: wait in a predicate loop.
  void wait(MutexLock& lock) { cv_.wait(lock.lock_); }

  void notify_one() noexcept { cv_.notify_one(); }
  void notify_all() noexcept { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace eucon
