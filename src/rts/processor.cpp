#include "rts/processor.h"

#include <algorithm>
#include <cstdint>

#include "common/check.h"

namespace eucon::rts {

namespace {

// True when the entry (key, task, subtask, seq) runs before `b`.
template <class Entry>
bool precedes(Ticks key, int task, int subtask, std::uint64_t seq,
              const Entry& b) {
  if (key != b.key) return key < b.key;
  if (task != b.task) return task < b.task;
  if (subtask != b.subtask) return subtask < b.subtask;
  return seq < b.enqueue_seq;
}

template <class Entry>
bool precedes(const Entry& a, const Entry& b) {
  return precedes(a.key, a.task, a.subtask, a.enqueue_seq, b);
}

template <class Entry>
void move_entry(Entry& to, const Entry& from) {
  to.key = from.key;
  to.task = from.task;
  to.subtask = from.subtask;
  to.enqueue_seq = from.enqueue_seq;
  to.job = from.job;
}

}  // namespace

Processor::Processor(int id, EventQueue* queue, JobPool* jobs, TraceLog* trace)
    : id_(id), queue_(queue), jobs_(jobs), trace_(trace) {
  EUCON_REQUIRE(queue != nullptr, "processor needs an event queue");
  EUCON_REQUIRE(jobs != nullptr, "processor needs a job pool");
  EUCON_REQUIRE(id >= 0 &&
                    static_cast<std::size_t>(id) < queue->completion_slots(),
                "the event queue has no completion slot for this processor");
}

void Processor::trace_event(TraceKind kind, JobHandle job, int task,
                            int subtask, Ticks now) {
  if (trace_ == nullptr) return;
  TraceRecord rec;
  rec.time = now;
  rec.kind = kind;
  rec.job_id = (*jobs_)[job].id;
  rec.task = task;
  rec.subtask = subtask;
  rec.processor = id_;
  trace_->record(rec);
}

void Processor::push_ready(Ticks key, int task, int subtask,
                           std::uint64_t enqueue_seq, JobHandle job) {
  std::size_t i = ready_.size();
  // Reserved from the spec; grows only past the largest backlog so far.
  ready_.emplace_back();  // eucon-lint: allow(allocation-in-realtime)
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (!precedes(key, task, subtask, enqueue_seq, ready_[parent])) break;
    move_entry(ready_[i], ready_[parent]);
    i = parent;
  }
  ReadyEntry& e = ready_[i];
  e.key = key;
  e.task = task;
  e.subtask = subtask;
  e.enqueue_seq = enqueue_seq;
  e.job = job;
}

void Processor::sift_down(std::size_t i, Ticks key, int task, int subtask,
                          std::uint64_t enqueue_seq, JobHandle job) {
  const std::size_t n = ready_.size();
  while (true) {
    std::size_t child = 2 * i + 1;
    if (child >= n) break;
    if (child + 1 < n && precedes(ready_[child + 1], ready_[child])) ++child;
    if (precedes(key, task, subtask, enqueue_seq, ready_[child])) break;
    move_entry(ready_[i], ready_[child]);
    i = child;
  }
  ReadyEntry& e = ready_[i];
  e.key = key;
  e.task = task;
  e.subtask = subtask;
  e.enqueue_seq = enqueue_seq;
  e.job = job;
}

void Processor::pop_ready(ReadyEntry& out) {
  move_entry(out, ready_.front());
  const ReadyEntry& last = ready_.back();
  const Ticks key = last.key;
  const int task = last.task;
  const int subtask = last.subtask;
  const std::uint64_t enqueue_seq = last.enqueue_seq;
  const JobHandle job = last.job;
  ready_.pop_back();
  if (!ready_.empty()) sift_down(0, key, task, subtask, enqueue_seq, job);
}

void Processor::swap_top(ReadyEntry& out) {
  const Ticks key = out.key;
  const int task = out.task;
  const int subtask = out.subtask;
  const std::uint64_t enqueue_seq = out.enqueue_seq;
  const JobHandle job = out.job;
  move_entry(out, ready_.front());
  sift_down(0, key, task, subtask, enqueue_seq, job);
}

void Processor::make_heap() {
  for (std::size_t i = ready_.size() / 2; i-- > 0;) {
    const ReadyEntry& e = ready_[i];
    sift_down(i, e.key, e.task, e.subtask, e.enqueue_seq, e.job);
  }
}

void Processor::account_until(Ticks now) {
  EUCON_ASSERT(now >= last_account_, "time moved backwards in accounting");
  if (busy()) {
    const Ticks executed = std::min(now - last_account_, running_remaining_);
    running_remaining_ -= executed;
    window_busy_ += executed;
    total_busy_ += executed;
  }
  last_account_ = now;
}

Ticks Processor::take_window_busy() {
  const Ticks busy = window_busy_;
  window_busy_ = 0;
  return busy;
}

void Processor::dispatch(Ticks now) {
  if (busy()) {
    // A running job with no demand left has finished *at this instant*;
    // its completion (same tick) is still pending in the queue. Leave it
    // in place so completion is recorded at the true finish time instead
    // of preempting a finished job.
    if (running_remaining_ == 0) return;
    // Preempt only on *strictly* higher priority: within an equal priority
    // level the scheduler is non-preemptive (the tie-break keys order the
    // ready queue but never evict a running job).
    if (ready_.empty() || ready_.front().key >= running_.key) return;
    trace_event(TraceKind::kPreempt, running_.job, running_.task,
                running_.subtask, now);
    (*jobs_)[running_.job].remaining = running_remaining_;
    // The top outranks the preempted job, so pushing that job and popping
    // the top is one exchange at the root.
    swap_top(running_);
  } else {
    if (ready_.empty()) return;
    pop_ready(running_);
  }
  Job& job = (*jobs_)[running_.job];
  running_remaining_ = job.remaining;
  trace_event(job.started ? TraceKind::kResume : TraceKind::kStart,
              running_.job, running_.task, running_.subtask, now);
  job.started = true;
  // Replaces the previous job's completion, if it is still pending.
  live_completion_seq_ = queue_->schedule_completion(
      static_cast<std::uint32_t>(id_), now + running_remaining_);
}

void Processor::make_ready(JobHandle job, Ticks priority_key, Ticks now) {
  EUCON_REQUIRE(jobs_->contains(job) && (*jobs_)[job].remaining > 0,
                "make_ready needs a live job");
  account_until(now);
  const Job& j = (*jobs_)[job];
  const int task = j.task;
  const int subtask = j.subtask;
  trace_event(TraceKind::kRelease, job, task, subtask, now);
  push_ready(priority_key, task, subtask, next_enqueue_seq_++, job);
  dispatch(now);
}

JobHandle Processor::on_completion_event(std::uint64_t seq, Ticks now) {
  EUCON_ASSERT(seq == live_completion_seq_ && busy(),
               "the queue popped a completion that is not the running job's");
  account_until(now);
  EUCON_ASSERT(running_remaining_ == 0,
               "completion event fired before the job finished");
  const JobHandle done = running_.job;
  trace_event(TraceKind::kCompletion, done, running_.task, running_.subtask,
              now);
  running_.job = kNoJob;
  dispatch(now);
  return done;
}

void Processor::reprioritize(const std::vector<Ticks>& period_ticks, Ticks now) {
  account_until(now);
  // Injected overhead jobs (task < 0) keep their key: they have no period
  // and already outrank every application job.
  const auto rekey = [&](ReadyEntry& e) {
    if (e.task >= 0) e.key = period_ticks[static_cast<std::size_t>(e.task)];
  };
  for (ReadyEntry& e : ready_) rekey(e);
  make_heap();
  if (busy()) rekey(running_);
  dispatch(now);
}

}  // namespace eucon::rts
