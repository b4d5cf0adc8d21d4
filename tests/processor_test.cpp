// Exact preemptive fixed-priority scheduling scenarios, hand-checked.
#include "rts/processor.h"

#include <gtest/gtest.h>

#include <vector>

#include "rts/event.h"

namespace eucon::rts {
namespace {

constexpr Ticks U = kTicksPerUnit;  // one time unit

struct Harness {
  EventQueue queue{1};
  JobPool pool;
  TraceLog trace;
  Processor proc{0, &queue, &pool, &trace};
  // The harness never releases a job, so handles count up from 0 and
  // index these vectors.
  std::vector<JobHandle> jobs;
  std::vector<Ticks> keys;    // priority key
  std::vector<Ticks> demand;  // execution demand
  std::vector<std::pair<Ticks, JobHandle>> completions;
  std::size_t completion_pops = 0;
  std::uint64_t next_id = 0;

  JobHandle make_job(int task, Ticks exec, Ticks priority) {
    const JobHandle h = pool.acquire();
    Job& j = pool[h];
    j.id = next_id++;
    j.task = task;
    j.remaining = exec;
    jobs.push_back(h);
    keys.push_back(priority);
    demand.push_back(exec);
    return h;
  }

  void make_ready(JobHandle h, Ticks now) { proc.make_ready(h, keys[h], now); }

  // Processes all events up to and including time `until`.
  void run_until(Ticks until) {
    while (!queue.empty() && queue.next_time() <= until) {
      const Event e = queue.pop();
      if (e.kind != EventKind::kCompletion) continue;
      ++completion_pops;
      const JobHandle done = proc.on_completion_event(e.seq, e.time);
      if (done != kNoJob) completions.emplace_back(e.time, done);
    }
  }
};

TEST(ProcessorTest, SingleJobCompletesExactly) {
  Harness h;
  const JobHandle j = h.make_job(0, 10 * U, 100);
  h.make_ready(j, 0);
  EXPECT_TRUE(h.proc.busy());
  h.run_until(100 * U);
  ASSERT_EQ(h.completions.size(), 1u);
  EXPECT_EQ(h.completions[0].first, 10 * U);
  EXPECT_EQ(h.completions[0].second, j);
  EXPECT_FALSE(h.proc.busy());
}

TEST(ProcessorTest, FifoWithinEqualPriority) {
  Harness h;
  const JobHandle a = h.make_job(0, 5 * U, 100);
  const JobHandle b = h.make_job(0, 5 * U, 100);
  h.make_ready(a, 0);
  h.make_ready(b, 0);
  h.run_until(100 * U);
  ASSERT_EQ(h.completions.size(), 2u);
  EXPECT_EQ(h.completions[0].second, a);
  EXPECT_EQ(h.completions[0].first, 5 * U);
  EXPECT_EQ(h.completions[1].second, b);
  EXPECT_EQ(h.completions[1].first, 10 * U);
}

TEST(ProcessorTest, HigherPriorityPreempts) {
  Harness h;
  const JobHandle low = h.make_job(0, 10 * U, 200);  // larger key = lower priority
  const JobHandle high = h.make_job(1, 3 * U, 100);
  h.make_ready(low, 0);
  h.run_until(4 * U);  // low runs 4 units
  EXPECT_TRUE(h.completions.empty());
  h.make_ready(high, 4 * U);  // preempts
  h.run_until(100 * U);
  ASSERT_EQ(h.completions.size(), 2u);
  // high: 4 + 3 = 7; low resumes with 6 left: 7 + 6 = 13.
  EXPECT_EQ(h.completions[0].second, high);
  EXPECT_EQ(h.completions[0].first, 7 * U);
  EXPECT_EQ(h.completions[1].second, low);
  EXPECT_EQ(h.completions[1].first, 13 * U);
}

TEST(ProcessorTest, LowerPriorityArrivalDoesNotPreempt) {
  Harness h;
  const JobHandle high = h.make_job(0, 10 * U, 100);
  const JobHandle low = h.make_job(1, 2 * U, 200);
  h.make_ready(high, 0);
  h.make_ready(low, 1 * U);
  h.run_until(100 * U);
  ASSERT_EQ(h.completions.size(), 2u);
  EXPECT_EQ(h.completions[0].second, high);
  EXPECT_EQ(h.completions[0].first, 10 * U);
  EXPECT_EQ(h.completions[1].first, 12 * U);
}

TEST(ProcessorTest, ArrivalAtExactCompletionInstantDoesNotDelayCompletion) {
  Harness h;
  const JobHandle a = h.make_job(0, 10 * U, 200);
  const JobHandle b = h.make_job(1, 5 * U, 100);  // higher priority, arrives at t=10
  h.make_ready(a, 0);
  // Deliver the arrival before the completion event is processed, at the
  // same timestamp — the finished job must still complete at t = 10.
  h.make_ready(b, 10 * U);
  h.run_until(100 * U);
  ASSERT_EQ(h.completions.size(), 2u);
  EXPECT_EQ(h.completions[0].second, a);
  EXPECT_EQ(h.completions[0].first, 10 * U);
  EXPECT_EQ(h.completions[1].second, b);
  EXPECT_EQ(h.completions[1].first, 15 * U);
}

TEST(ProcessorTest, PreemptionReplacesThePendingCompletion) {
  Harness h;
  const JobHandle low = h.make_job(0, 10 * U, 200);
  h.make_ready(low, 0);  // schedules completion at t=10 (replaced later)
  const JobHandle high = h.make_job(1, 3 * U, 100);
  h.make_ready(high, 2 * U);  // preempts; high's completion replaces low's
  h.run_until(100 * U);
  // Exactly two completions from three scheduled ones, and no stale pop.
  ASSERT_EQ(h.completions.size(), 2u);
  EXPECT_EQ(h.completion_pops, 2u);
  EXPECT_EQ(h.completions[0].second, high);
  EXPECT_EQ(h.completions[0].first, 5 * U);
  EXPECT_EQ(h.completions[1].second, low);
  EXPECT_EQ(h.completions[1].first, 13 * U);
}

TEST(ProcessorTest, BusyAccountingExact) {
  Harness h;
  const JobHandle j = h.make_job(0, 7 * U, 100);
  h.make_ready(j, 2 * U);
  h.run_until(100 * U);
  h.proc.account_until(20 * U);
  EXPECT_EQ(h.proc.take_window_busy(), 7 * U);
  EXPECT_EQ(h.proc.take_window_busy(), 0);  // window was reset
  EXPECT_EQ(h.proc.total_busy(), 7 * U);
}

TEST(ProcessorTest, WindowSplitsAcrossAccountingPoints) {
  Harness h;
  const JobHandle j = h.make_job(0, 10 * U, 100);
  h.make_ready(j, 0);
  h.proc.account_until(4 * U);
  EXPECT_EQ(h.proc.take_window_busy(), 4 * U);
  h.run_until(100 * U);
  h.proc.account_until(20 * U);
  EXPECT_EQ(h.proc.take_window_busy(), 6 * U);
}

TEST(ProcessorTest, ReprioritizeSwitchesRunningJob) {
  Harness h;
  const JobHandle a = h.make_job(0, 10 * U, 100);  // starts as higher priority
  const JobHandle b = h.make_job(1, 10 * U, 200);
  h.make_ready(a, 0);
  h.make_ready(b, 0);
  // At t=2, a rate change flips the priorities: b's task becomes faster.
  h.proc.reprioritize({Ticks{300}, Ticks{50}}, 2 * U);
  h.run_until(100 * U);
  ASSERT_EQ(h.completions.size(), 2u);
  // b runs 2..12; a resumes with 8 left: 12..20.
  EXPECT_EQ(h.completions[0].second, b);
  EXPECT_EQ(h.completions[0].first, 12 * U);
  EXPECT_EQ(h.completions[1].second, a);
  EXPECT_EQ(h.completions[1].first, 20 * U);
}

TEST(ProcessorTest, TaskIdBreaksPriorityTies) {
  Harness h;
  const JobHandle t5 = h.make_job(5, 4 * U, 100);
  const JobHandle t2 = h.make_job(2, 4 * U, 100);
  h.make_ready(t5, 0);  // starts running (only job)
  h.make_ready(t2, 0);  // same priority, smaller task id — no preemption
  h.run_until(100 * U);
  // t5 keeps the CPU (preemption only for strictly higher priority);
  // within the ready queue t2 would outrank another equal-priority job.
  ASSERT_EQ(h.completions.size(), 2u);
  EXPECT_EQ(h.completions[0].second, t5);
}

TEST(ProcessorTest, RejectsDeadJob) {
  Harness h;
  const JobHandle j = h.make_job(0, 0, 100);
  EXPECT_THROW(h.make_ready(j, 0), std::invalid_argument);
  EXPECT_THROW(h.proc.make_ready(kNoJob, 100, 0), std::invalid_argument);
}

TEST(ProcessorTest, ManyJobsAllComplete) {
  Harness h;
  for (int i = 0; i < 100; ++i) {
    const Ticks arrival = static_cast<Ticks>(i) * U / 2;
    h.run_until(arrival);  // deliver earlier completions first
    h.make_ready(h.make_job(i % 7, (1 + i % 5) * U, 100 + (i % 3) * 50),
              arrival);
  }
  h.run_until(10000 * U);
  EXPECT_EQ(h.completions.size(), 100u);
  EXPECT_FALSE(h.proc.busy());
  EXPECT_EQ(h.proc.ready_count(), 0u);
  // Total busy time equals total demand.
  Ticks demand = 0;
  for (const JobHandle j : h.jobs) demand += h.demand[j];
  EXPECT_EQ(h.proc.total_busy(), demand);
}

// A 4-unit lowest-priority job every 8 units, with 1-unit jobs of rising
// priority arriving every 2 units on top of it, so half the arrivals
// preempt. Every pop is a live completion: the pop count equals the
// completion count and each returns the finished job.
TEST(ProcessorTest, PreemptionHeavySetPopsOnlyLiveCompletions) {
  Harness h;
  std::size_t arrivals = 0;
  for (int i = 0; i < 400; ++i) {
    const Ticks arrival = static_cast<Ticks>(i) * 2 * U;
    h.run_until(arrival - 1);
    const Ticks exec = i % 4 == 0 ? 4 * U : U;
    h.make_ready(h.make_job(i % 4, exec, 400 - 100 * (i % 4)), arrival);
    ++arrivals;
  }
  h.run_until(100000 * U);
  std::size_t preemptions = 0;
  for (const TraceRecord& r : h.trace.records())
    preemptions += r.kind == TraceKind::kPreempt ? 1 : 0;
  EXPECT_EQ(preemptions, arrivals / 2);
  EXPECT_EQ(h.completions.size(), arrivals);
  EXPECT_EQ(h.completion_pops, arrivals);
  EXPECT_FALSE(h.proc.busy());
}

}  // namespace
}  // namespace eucon::rts
