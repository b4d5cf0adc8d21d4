#include "rts/processor.h"

#include <algorithm>

#include "common/check.h"

namespace eucon::rts {

bool Processor::ByPriority::operator()(const ReadyEntry& a,
                                       const ReadyEntry& b) const {
  if (a.key != b.key) return a.key > b.key;
  if (a.task != b.task) return a.task > b.task;
  if (a.subtask != b.subtask) return a.subtask > b.subtask;
  return a.enqueue_seq > b.enqueue_seq;
}

Processor::Processor(int id, EventQueue* queue, JobPool* jobs, TraceLog* trace)
    : id_(id), queue_(queue), jobs_(jobs), trace_(trace) {
  EUCON_REQUIRE(queue != nullptr, "processor needs an event queue");
  EUCON_REQUIRE(jobs != nullptr, "processor needs a job pool");
}

void Processor::trace_event(TraceKind kind, const ReadyEntry& entry, Ticks now) {
  if (trace_ == nullptr) return;
  TraceRecord rec;
  rec.time = now;
  rec.kind = kind;
  rec.job_id = (*jobs_)[entry.job].id;
  rec.task = entry.task;
  rec.subtask = entry.subtask;
  rec.processor = id_;
  trace_->record(rec);
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

void Processor::schedule_completion(Ticks now) {
  Event e;
  e.time = now + running_remaining_;
  e.kind = EventKind::kCompletion;
  e.index = static_cast<std::uint32_t>(id_);
  live_completion_seq_ = queue_->push(e);
}

void Processor::dispatch(Ticks now) {
  // A running job with no demand left has finished *at this instant*; its
  // completion event (same tick, the live one) is still pending in the
  // queue. Leave it in place so completion is recorded at the true finish
  // time instead of preempting a finished job.
  if (busy() && running_remaining_ == 0) return;

  // Preempt only on *strictly* higher priority: within an equal priority
  // level the scheduler is non-preemptive (the tie-break keys order the
  // ready queue but never evict a running job).
  if (busy() && !ready_.empty() && ready_.front().key < running_.key) {
    trace_event(TraceKind::kPreempt, running_, now);
    (*jobs_)[running_.job].remaining = running_remaining_;
    // Reserved from the spec; grows only past the largest backlog so far.
    ready_.push_back(running_);  // eucon-lint: allow(allocation-in-realtime)
    std::push_heap(ready_.begin(), ready_.end(), ByPriority{});
    running_.job = kNoJob;
  }
  if (!busy() && !ready_.empty()) {
    std::pop_heap(ready_.begin(), ready_.end(), ByPriority{});
    running_ = ready_.back();
    ready_.pop_back();
    Job& job = (*jobs_)[running_.job];
    running_remaining_ = job.remaining;
    trace_event(job.started ? TraceKind::kResume : TraceKind::kStart, running_,
                now);
    job.started = true;
    schedule_completion(now);
  }
}

void Processor::make_ready(JobHandle job, Ticks priority_key, Ticks now) {
  EUCON_REQUIRE(jobs_->contains(job) && (*jobs_)[job].remaining > 0,
                "make_ready needs a live job");
  account_until(now);
  const Job& j = (*jobs_)[job];
  ReadyEntry entry;
  entry.key = priority_key;
  entry.task = j.task;
  entry.subtask = j.subtask;
  entry.enqueue_seq = next_enqueue_seq_++;
  entry.job = job;
  trace_event(TraceKind::kRelease, entry, now);
  // Reserved from the spec; grows only past the largest backlog so far.
  ready_.push_back(entry);  // eucon-lint: allow(allocation-in-realtime)
  std::push_heap(ready_.begin(), ready_.end(), ByPriority{});
  dispatch(now);
}

JobHandle Processor::on_completion_event(std::uint64_t seq, Ticks now) {
  if (seq != live_completion_seq_ || !busy()) return kNoJob;  // stale
  account_until(now);
  EUCON_ASSERT(running_remaining_ == 0,
               "current completion event fired before the job finished");
  const JobHandle done = running_.job;
  trace_event(TraceKind::kCompletion, running_, now);
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
  std::make_heap(ready_.begin(), ready_.end(), ByPriority{});
  if (busy()) rekey(running_);
  dispatch(now);
}

}  // namespace eucon::rts
