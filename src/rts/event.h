// Discrete-event core: event records and the time-ordered queue.
#pragma once

#include <cstdint>
#include <queue>
#include <vector>

#include "common/ticks.h"

namespace eucon::rts {

enum class EventKind {
  kTaskRelease,     // periodic release of a task's first subtask
  kSubtaskRelease,  // release-guarded release of a downstream subtask
  kCompletion,      // a processor's running job may have finished
  kRateChange,      // rate modulators apply the oldest pending rate vector
};

struct Event {
  Ticks time = 0;
  std::uint64_t seq = 0;  // creation order; breaks ties at equal times
  EventKind kind = EventKind::kTaskRelease;
  // Payload (interpretation depends on kind):
  int task = -1;          // kTaskRelease / kSubtaskRelease
  int subtask = -1;       // kSubtaskRelease
  int processor = -1;     // kCompletion
  std::uint64_t gen = 0;  // kTaskRelease / kCompletion staleness check
};

struct EventAfter {
  bool operator()(const Event& a, const Event& b) const {
    if (a.time != b.time) return a.time > b.time;
    return a.seq > b.seq;
  }
};

// Min-queue on (time, seq). Events created earlier are processed earlier at
// equal timestamps, preserving causal order.
class EventQueue {
 public:
  void push(Event e) {
    e.seq = next_seq_++;
    queue_.push(e);
  }
  bool empty() const { return queue_.empty(); }
  const Event& top() const { return queue_.top(); }
  Event pop() {
    Event e = queue_.top();
    queue_.pop();
    return e;
  }
  std::size_t size() const { return queue_.size(); }

 private:
  std::priority_queue<Event, std::vector<Event>, EventAfter> queue_;
  std::uint64_t next_seq_ = 0;
};

}  // namespace eucon::rts
