// A single processor with a preemptive fixed-priority (RMS) scheduler and
// exact busy-time accounting.
//
// Priorities are rate monotonic: a job's priority key is its task's current
// period in ticks (smaller period = higher priority). Keys are snapshots;
// when the rate modulator changes task rates the simulator calls
// reprioritize() to refresh every queued job and re-evaluate preemption.
//
// The ready heap holds compact entries (key, task, subtask, enqueue seq,
// job handle), so ordering and re-keying never read a Job; the running
// job's entry and remaining demand live in the processor itself. Its sifts
// move entries field by field between heap nodes, never through a
// temporary struct.
//
// The processor owns one completion slot in the event queue: whenever a
// job starts or resumes, the slot is set to that job's finish time, which
// replaces the previous job's completion, so every completion the queue
// pops is the running job's.
#pragma once

#include <cstdint>
#include <vector>

#include "common/ticks.h"
#include "rts/event.h"
#include "rts/job.h"
#include "rts/trace.h"

namespace eucon::rts {

class Processor {
 public:
  // `trace` may be null (tracing disabled). `queue` and `jobs` must
  // outlive the processor.
  Processor(int id, EventQueue* queue, JobPool* jobs, TraceLog* trace = nullptr);

  // Adds a released job to the ready set under `priority_key` (smaller =
  // higher priority), preempting if it outranks the running job. The job
  // stays in the caller's pool.
  void make_ready(JobHandle job, Ticks priority_key, Ticks now);

  // Handles the completion event that the queue stamped `seq` (always the
  // running job's: the queue holds no stale completions) and returns the
  // completed job.
  JobHandle on_completion_event(std::uint64_t seq, Ticks now);

  // Rate-monotonic re-keying after a rate change: every queued and running
  // application job's key becomes period_ticks[task] (injected overhead,
  // task < 0, keeps its key), then preemption is re-evaluated.
  void reprioritize(const std::vector<Ticks>& period_ticks, Ticks now);

  // Sizes the ready heap for `jobs` queued jobs, so it does not grow while
  // the backlog stays below that.
  void reserve(std::size_t jobs) { ready_.reserve(jobs); }

  // Advances busy-time accounting up to `now` (idempotent).
  void account_until(Ticks now);

  // Busy ticks accumulated since the previous call (the utilization monitor
  // reads this once per sampling period). Callers should account_until()
  // the window edge first.
  Ticks take_window_busy();

  bool busy() const { return running_.job != kNoJob; }
  std::size_t ready_count() const { return ready_.size(); }
  Ticks total_busy() const { return total_busy_; }
  int id() const { return id_; }

 private:
  struct ReadyEntry {
    Ticks key = 0;  // RMS: the task's period; EDF: the absolute subdeadline
    int task = 0;
    int subtask = 0;
    std::uint64_t enqueue_seq = 0;  // FIFO tie-break within equal keys
    JobHandle job = kNoJob;
  };

  // Binary min-heap on (key, task, subtask, enqueue_seq), a strict total
  // order, so any correct heap pops the same entry.
  void push_ready(Ticks key, int task, int subtask, std::uint64_t enqueue_seq,
                  JobHandle job);
  // Moves the top entry into `out` and refills the heap from its last entry.
  void pop_ready(ReadyEntry& out);
  // Moves the top entry into `out` and sinks `out`'s old entry in its place.
  void swap_top(ReadyEntry& out);
  void sift_down(std::size_t i, Ticks key, int task, int subtask,
                 std::uint64_t enqueue_seq, JobHandle job);
  void make_heap();

  void dispatch(Ticks now);
  void trace_event(TraceKind kind, JobHandle job, int task, int subtask,
                   Ticks now);

  int id_;
  EventQueue* queue_;
  JobPool* jobs_;
  TraceLog* trace_;
  std::vector<ReadyEntry> ready_;  // binary heap, top first
  ReadyEntry running_;             // job == kNoJob when idle
  Ticks running_remaining_ = 0;    // the running job's demand not yet executed
  Ticks last_account_ = 0;
  Ticks window_busy_ = 0;
  Ticks total_busy_ = 0;
  std::uint64_t live_completion_seq_ = ~std::uint64_t{0};  // the slot's seq
  std::uint64_t next_enqueue_seq_ = 0;
};

}  // namespace eucon::rts
