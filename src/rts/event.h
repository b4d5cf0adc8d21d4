// Discrete-event core: event records and the time-ordered queue.
#pragma once

#include <cstdint>
#include <vector>

#include "common/ticks.h"

namespace eucon::rts {

enum class EventKind : std::uint8_t {
  kTaskRelease,     // periodic release of a task's first subtask
  kSubtaskRelease,  // release-guarded release of a downstream subtask
  kCompletion,      // a processor's running job may have finished
  kRateChange,      // rate modulators apply the oldest pending rate vector
};

// 24 bytes. The (time, seq) key orders the queue; `index` names what the
// event is about: the task (kTaskRelease), the flat subtask index
// (kSubtaskRelease) or the processor (kCompletion).
//
// Staleness needs no generation field: the 64-bit `seq` that push()
// assigns is unique for the life of the queue, so the owner of a
// cancellable event (a task's periodic release, a processor's completion)
// keeps the seq of the one it still means, and any other seq popped for
// it is stale. Nothing is narrowed, so a stale event can never alias the
// live one.
struct Event {
  Ticks time = 0;
  std::uint64_t seq = 0;  // push order; breaks ties at equal times
  std::uint32_t index = 0;
  EventKind kind = EventKind::kTaskRelease;
};
static_assert(sizeof(Event) == 24, "events stay three words");

// Min-queue on (time, seq): a 4-ary heap in one reused vector. Events
// created earlier are processed earlier at equal timestamps, preserving
// causal order. (time, seq) is a strict total order, so the pop sequence
// is the same as any other correct priority queue's.
class EventQueue {
 public:
  // Stamps `e` with the next seq, queues it and returns that seq.
  std::uint64_t push(Event e) {
    e.seq = next_seq_++;
    std::size_t i = heap_.size();
    // Grows only past the largest number of pending events so far; the
    // simulator reserves a steady-state size from its spec.
    heap_.push_back(e);  // eucon-lint: allow(allocation-in-realtime)
    while (i > 0) {
      const std::size_t parent = (i - 1) / kArity;
      if (!before(e, heap_[parent])) break;
      heap_[i] = heap_[parent];
      i = parent;
    }
    heap_[i] = e;
    return e.seq;
  }

  bool empty() const { return heap_.empty(); }
  const Event& top() const { return heap_.front(); }
  std::size_t size() const { return heap_.size(); }
  void reserve(std::size_t n) { heap_.reserve(n); }

  Event pop() {
    const Event out = heap_.front();
    const Event last = heap_.back();
    heap_.pop_back();
    const std::size_t n = heap_.size();
    if (n == 0) return out;
    std::size_t i = 0;
    while (true) {
      const std::size_t first = kArity * i + 1;
      if (first >= n) break;
      std::size_t best = first;
      const std::size_t end = first + kArity < n ? first + kArity : n;
      for (std::size_t c = first + 1; c < end; ++c)
        if (before(heap_[c], heap_[best])) best = c;
      if (!before(heap_[best], last)) break;
      heap_[i] = heap_[best];
      i = best;
    }
    heap_[i] = last;
    return out;
  }

 private:
  static constexpr std::size_t kArity = 4;

  static bool before(const Event& a, const Event& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.seq < b.seq;
  }

  std::vector<Event> heap_;
  std::uint64_t next_seq_ = 0;
};

}  // namespace eucon::rts
