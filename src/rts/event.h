// Discrete-event core: event records and the time-ordered queue.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/check.h"
#include "common/ticks.h"

namespace eucon::rts {

enum class EventKind : std::uint8_t {
  kTaskRelease,     // periodic release of a task's first subtask
  kSubtaskRelease,  // release-guarded release of a downstream subtask
  kCompletion,      // a processor's running job finishes
  kRateChange,      // rate modulators apply the oldest pending rate vector
};

// 24 bytes. The (time, seq) key orders the queue; `index` names what the
// event is about: the task (kTaskRelease), the flat subtask index
// (kSubtaskRelease) or the processor (kCompletion).
//
// Staleness needs no generation field: the 64-bit `seq` that the queue
// assigns is unique for the life of the queue, so the owner of a
// cancellable task release keeps the seq of the one it still means, and
// any other seq popped for it is stale. Nothing is narrowed, so a stale
// event can never alias the live one.
struct Event {
  Ticks time = 0;
  std::uint64_t seq = 0;  // push order; breaks ties at equal times
  std::uint32_t index = 0;
  EventKind kind = EventKind::kTaskRelease;
};
static_assert(sizeof(Event) == 24, "events stay three words");

// Min-queue on (time, seq) over two 4-ary heaps that draw seqs from one
// counter. Events created earlier are processed earlier at equal
// timestamps, preserving causal order. (time, seq) is a strict total
// order, so the pop sequence is the same as any other correct priority
// queue's.
//
// A processor has at most one live completion, so completions do not go
// in the general heap: each processor owns one slot of a small indexed
// heap, and rescheduling a completion (a preemption or a resume) moves
// that slot's key in place, leaving no stale event behind. Task releases,
// subtask releases and rate changes go in the general heap. pop() takes
// the earlier of the two heads.
//
// Heap nodes are written field by field where they come to rest, and moved
// from node to node, never built in a temporary and copied in: a whole-node
// load right after field-wise stores to the same node cannot be forwarded
// from the store buffer and stalls.
class EventQueue {
 public:
  // One completion slot per processor, sized here and never again.
  explicit EventQueue(std::size_t processors = 0)
      : slots_(processors), slot_pos_(processors, kAbsent) {}

  // Queues a non-completion event of `kind` about `index` at `time`,
  // stamps it with the next seq and returns that seq.
  std::uint64_t push(Ticks time, EventKind kind, std::uint32_t index) {
    const std::uint64_t seq = next_seq_++;
    std::size_t i = heap_.size();
    // Grows only past the largest number of pending events so far; the
    // simulator reserves a steady-state size from its spec.
    heap_.emplace_back();  // eucon-lint: allow(allocation-in-realtime)
    // The new seq is the largest, so the node rises past a parent only
    // when its time is strictly earlier.
    while (i > 0) {
      const std::size_t parent = (i - 1) / kArity;
      if (heap_[parent].time <= time) break;
      heap_[i] = heap_[parent];
      i = parent;
    }
    Event& e = heap_[i];
    e.time = time;
    e.seq = seq;
    e.index = index;
    e.kind = kind;
    return seq;
  }

  // Sets processor `processor`'s completion to `time` under the next seq,
  // replacing its pending completion if it has one, and returns that seq.
  std::uint64_t schedule_completion(std::uint32_t processor, Ticks time) {
    EUCON_ASSERT(processor < slot_pos_.size(),
                 "no completion slot for processor");
    const std::uint64_t seq = next_seq_++;
    std::size_t i = slot_pos_[processor];
    if (i == kAbsent) {
      i = slot_count_++;
    } else if (slots_[i].time <= time) {
      // A later key (the new seq is the largest): sink.
      sift_slot_down(i, time, seq, processor);
      return seq;
    }
    // A new slot or an earlier time: rise.
    while (i > 0) {
      const std::size_t parent = (i - 1) / kArity;
      if (slots_[parent].time <= time) break;
      move_slot(i, parent);
      i = parent;
    }
    place_slot(i, time, seq, processor);
    return seq;
  }

  bool empty() const { return heap_.empty() && slot_count_ == 0; }
  std::size_t size() const { return heap_.size() + slot_count_; }
  std::size_t completion_slots() const { return slot_pos_.size(); }
  void reserve(std::size_t n) { heap_.reserve(n); }

  // Time of the earliest event. The queue must not be empty.
  Ticks next_time() const {
    if (slot_count_ == 0) return heap_.front().time;
    if (heap_.empty()) return slots_.front().time;
    return std::min(heap_.front().time, slots_.front().time);
  }

  // Removes and returns the earliest event. The queue must not be empty.
  Event pop() {
    if (slot_count_ != 0 &&
        (heap_.empty() || before(slots_.front(), heap_.front())))
      return pop_completion();
    Event out;
    out.time = heap_.front().time;
    out.seq = heap_.front().seq;
    out.index = heap_.front().index;
    out.kind = heap_.front().kind;
    const Event& back = heap_.back();
    const Ticks time = back.time;
    const std::uint64_t seq = back.seq;
    const std::uint32_t index = back.index;
    const EventKind kind = back.kind;
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
      const Event& b = heap_[best];
      if (b.time > time || (b.time == time && b.seq > seq)) break;
      heap_[i] = b;
      i = best;
    }
    Event& e = heap_[i];
    e.time = time;
    e.seq = seq;
    e.index = index;
    e.kind = kind;
    return out;
  }

 private:
  static constexpr std::size_t kArity = 4;
  static constexpr std::uint32_t kAbsent = ~std::uint32_t{0};

  // A completion slot: the processor's completion time and seq.
  struct Slot {
    Ticks time = 0;
    std::uint64_t seq = 0;
    std::uint32_t processor = 0;
  };

  template <class A, class B>
  static bool before(const A& a, const B& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.seq < b.seq;
  }

  void move_slot(std::size_t to, std::size_t from) {
    slots_[to] = slots_[from];
    slot_pos_[slots_[to].processor] = static_cast<std::uint32_t>(to);
  }

  void place_slot(std::size_t i, Ticks time, std::uint64_t seq,
                  std::uint32_t processor) {
    Slot& s = slots_[i];
    s.time = time;
    s.seq = seq;
    s.processor = processor;
    slot_pos_[processor] = static_cast<std::uint32_t>(i);
  }

  // Sinks the key (time, seq) of `processor` from position i.
  void sift_slot_down(std::size_t i, Ticks time, std::uint64_t seq,
                      std::uint32_t processor) {
    const std::size_t n = slot_count_;
    while (true) {
      const std::size_t first = kArity * i + 1;
      if (first >= n) break;
      std::size_t best = first;
      const std::size_t end = first + kArity < n ? first + kArity : n;
      for (std::size_t c = first + 1; c < end; ++c)
        if (before(slots_[c], slots_[best])) best = c;
      const Slot& b = slots_[best];
      if (b.time > time || (b.time == time && b.seq > seq)) break;
      move_slot(i, best);
      i = best;
    }
    place_slot(i, time, seq, processor);
  }

  Event pop_completion() {
    Event out;
    out.time = slots_.front().time;
    out.seq = slots_.front().seq;
    out.index = slots_.front().processor;
    out.kind = EventKind::kCompletion;
    slot_pos_[out.index] = kAbsent;
    const std::size_t last = --slot_count_;
    if (last != 0) {
      const Slot& l = slots_[last];
      sift_slot_down(0, l.time, l.seq, l.processor);
    }
    return out;
  }

  std::vector<Event> heap_;        // general 4-ary heap
  std::vector<Slot> slots_;        // completion heap, first slot_count_ live
  std::vector<std::uint32_t> slot_pos_;  // processor -> heap position
  std::size_t slot_count_ = 0;
  std::uint64_t next_seq_ = 0;
};

}  // namespace eucon::rts
