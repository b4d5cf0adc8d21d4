// A job: one invocation of one subtask, and the pool that stores jobs.
#pragma once

#include <cstdint>
#include <vector>

#include "common/check.h"
#include "common/ticks.h"

namespace eucon::rts {

struct Job {
  std::uint64_t id = 0;
  int task = 0;     // -1 marks injected overhead (no chain, no deadline)
  int subtask = 0;  // index within the task's chain

  Ticks instance_release = 0;  // release time of the instance's first subtask
  Ticks abs_deadline = 0;      // end-to-end absolute deadline of the instance
  Ticks sub_deadline = 0;      // this subtask's absolute subdeadline

  Ticks remaining = 0;   // demand not yet executed
  bool started = false;  // has executed at least once (trace labels)
};

// Index of a job slot in a JobPool.
using JobHandle = std::uint32_t;
inline constexpr JobHandle kNoJob = ~JobHandle{0};

// Job storage with a free list: acquire() reuses the slot of a finished
// job, so once the slot count reaches the run's high-water mark of jobs in
// flight, releasing and finishing jobs touches no heap. A handle stays
// valid from acquire() to release(); references into the pool do not
// survive an acquire() (the slot vector may grow), handles do.
class JobPool {
 public:
  JobHandle acquire() {
    ++in_flight_;
    if (free_head_ != kNoJob) {
      const JobHandle h = free_head_;
      free_head_ = slots_[h].next_free;
      slots_[h].job = Job{};
      return h;
    }
    EUCON_ASSERT(slots_.size() < kNoJob, "job pool exhausted its handle space");
    // Grows only past the largest number of jobs in flight so far.
    slots_.emplace_back();  // eucon-lint: allow(allocation-in-realtime)
    return static_cast<JobHandle>(slots_.size() - 1);
  }

  void release(JobHandle h) {
    EUCON_ASSERT(h < slots_.size() && in_flight_ > 0, "releasing an unknown job");
    --in_flight_;
    slots_[h].next_free = free_head_;
    free_head_ = h;
  }

  // True when `h` names a slot of this pool (live or free).
  bool contains(JobHandle h) const { return h < slots_.size(); }

  Job& operator[](JobHandle h) { return slots_[h].job; }
  const Job& operator[](JobHandle h) const { return slots_[h].job; }

  std::size_t in_flight() const { return in_flight_; }

 private:
  struct Slot {
    Job job;
    JobHandle next_free = kNoJob;  // free-list link while the slot is free
  };
  std::vector<Slot> slots_;
  JobHandle free_head_ = kNoJob;  // last released slot, reused first
  std::size_t in_flight_ = 0;
};

}  // namespace eucon::rts
