#include "rts/simulator.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "eucon/workloads.h"

namespace eucon::rts {
namespace {

SystemSpec one_task(double exec, double period, int processors = 1) {
  SystemSpec s;
  s.num_processors = processors;
  TaskSpec t;
  t.name = "T1";
  t.subtasks = {{0, exec}};
  t.rate_min = 1.0 / (period * 100.0);
  t.initial_rate = 1.0 / period;
  t.rate_max = std::max(1.0 / std::max(exec, period / 100.0), t.initial_rate);
  s.tasks = {t};
  return s;
}

SystemSpec chain_task(double exec1, double exec2, double period) {
  SystemSpec s;
  s.num_processors = 2;
  TaskSpec t;
  t.name = "chain";
  t.subtasks = {{0, exec1}, {1, exec2}};
  t.rate_min = 1.0 / (period * 100.0);
  t.rate_max = 1.0 / std::max(exec1, exec2);
  t.initial_rate = 1.0 / period;
  s.tasks = {t};
  return s;
}

TEST(SimulatorTest, SingleTaskUtilizationExact) {
  // c = 10, period = 100: utilization must be exactly 0.1 per window.
  Simulator sim(one_task(10.0, 100.0), SimOptions{});
  sim.run_until_units(1000.0);
  const auto u = sim.sample_utilizations();
  ASSERT_EQ(u.size(), 1u);
  EXPECT_NEAR(u[0], 0.1, 1e-9);
}

TEST(SimulatorTest, UtilizationScalesWithEtf) {
  SimOptions opts;
  opts.etf = EtfProfile::constant(2.0);
  Simulator sim(one_task(10.0, 100.0), opts);
  sim.run_until_units(1000.0);
  EXPECT_NEAR(sim.sample_utilizations()[0], 0.2, 1e-9);
}

TEST(SimulatorTest, OverloadSaturatesAtOne) {
  // Demand 50/25 = 2.0: the processor is busy the whole window.
  Simulator sim(one_task(50.0, 25.0), SimOptions{});
  sim.run_until_units(1000.0);
  EXPECT_NEAR(sim.sample_utilizations()[0], 1.0, 1e-12);
  EXPECT_GT(sim.jobs_in_flight(), 0u);  // backlog accumulates
}

TEST(SimulatorTest, ChainLoadsBothProcessors) {
  Simulator sim(chain_task(10.0, 20.0, 100.0), SimOptions{});
  sim.run_until_units(2000.0);
  const auto u = sim.sample_utilizations();
  EXPECT_NEAR(u[0], 0.10, 0.005);
  // The downstream subtask also runs once per period (release guard keeps
  // it periodic); allow the one-instance pipeline fill at the start.
  EXPECT_NEAR(u[1], 0.20, 0.015);
}

TEST(SimulatorTest, ChainCompletionsRespectPrecedence) {
  Simulator sim(chain_task(10.0, 10.0, 100.0), SimOptions{});
  sim.run_until_units(5000.0);
  const auto& st = sim.deadline_stats();
  // ~50 instances released; completed ones must have response >= c1 + c2.
  EXPECT_GE(st.task(0).instances_completed, 45u);
  EXPECT_GE(st.task(0).response_time_units.min(), 20.0 - 1e-9);
}

TEST(SimulatorTest, SubtaskStaysPeriodicUnderReleaseGuard) {
  // Even when the upstream subtask finishes quickly, the downstream one
  // may not run more often than once per period: its total demand over a
  // long window equals (window / period) * c2.
  Simulator sim(chain_task(5.0, 30.0, 100.0), SimOptions{});
  sim.run_until_units(10000.0);
  const auto u = sim.sample_utilizations();
  EXPECT_NEAR(u[1], 0.30, 0.01);
}

TEST(SimulatorTest, RateChangeTakesEffect) {
  Simulator sim(one_task(10.0, 100.0), SimOptions{});
  sim.run_until_units(1000.0);
  EXPECT_NEAR(sim.sample_utilizations()[0], 0.1, 1e-9);
  sim.set_rates({1.0 / 50.0});  // double the rate
  sim.run_until_units(2000.0);
  // Allow a small transition effect in the first window after the change.
  EXPECT_NEAR(sim.sample_utilizations()[0], 0.2, 0.01);
  sim.run_until_units(3000.0);
  EXPECT_NEAR(sim.sample_utilizations()[0], 0.2, 1e-6);
}

TEST(SimulatorTest, RateChangeClampsToBounds) {
  SystemSpec spec = one_task(10.0, 100.0);
  Simulator sim(spec, SimOptions{});
  sim.run_until_units(1000.0);
  (void)sim.sample_utilizations();
  sim.set_rates({1e9});  // far above rate_max = 1/10
  sim.run_until_units(1100.0);
  EXPECT_NEAR(sim.current_rates()[0], spec.tasks[0].rate_max, 1e-12);
}

TEST(SimulatorTest, FeedbackLaneDelayPostponesRates) {
  SimOptions opts;
  opts.feedback_lane_delay = 500.0;
  Simulator sim(one_task(10.0, 100.0), opts);
  sim.run_until_units(1000.0);
  (void)sim.sample_utilizations();
  sim.set_rates({1.0 / 50.0});
  sim.run_until_units(1400.0);  // before the delayed application
  EXPECT_NEAR(sim.current_rates()[0], 1.0 / 100.0, 1e-12);
  sim.run_until_units(1600.0);  // after
  EXPECT_NEAR(sim.current_rates()[0], 1.0 / 50.0, 1e-12);
}

TEST(SimulatorTest, DeterministicAcrossRuns) {
  SimOptions opts;
  opts.seed = 99;
  opts.jitter = 0.2;
  auto run = [&] {
    Simulator sim(chain_task(10.0, 20.0, 80.0), opts);
    sim.run_until_units(3000.0);
    return sim.sample_utilizations();
  };
  const auto a = run();
  const auto b = run();
  EXPECT_EQ(a, b);
}

TEST(SimulatorTest, SeedChangesJitteredOutcome) {
  SimOptions a;
  a.seed = 1;
  a.jitter = 0.2;
  SimOptions b = a;
  b.seed = 2;
  Simulator sa(chain_task(10.0, 20.0, 80.0), a);
  Simulator sb(chain_task(10.0, 20.0, 80.0), b);
  sa.run_until_units(1000.0);
  sb.run_until_units(1000.0);
  EXPECT_NE(sa.sample_utilizations(), sb.sample_utilizations());
}

TEST(SimulatorTest, DeadlinesMetWhenUnderloaded) {
  // Huge slack: every deadline met.
  Simulator sim(one_task(5.0, 200.0), SimOptions{});
  sim.run_until_units(10000.0);
  const auto& st = sim.deadline_stats();
  EXPECT_GT(st.total_completed_instances(), 40u);
  EXPECT_DOUBLE_EQ(st.e2e_miss_ratio(), 0.0);
  EXPECT_DOUBLE_EQ(st.subtask_miss_ratio(), 0.0);
}

TEST(SimulatorTest, DeadlinesMissedUnderOverload) {
  SimOptions opts;
  opts.etf = EtfProfile::constant(3.0);  // actual exec 3x the period budget
  Simulator sim(one_task(40.0, 100.0), opts);
  sim.run_until_units(10000.0);
  EXPECT_GT(sim.deadline_stats().e2e_miss_ratio(), 0.5);
}

TEST(SimulatorTest, SampleWithoutRunningThrows) {
  Simulator sim(one_task(10.0, 100.0), SimOptions{});
  EXPECT_THROW(sim.sample_utilizations(), std::invalid_argument);
}

TEST(SimulatorTest, RunBackwardsThrows) {
  Simulator sim(one_task(10.0, 100.0), SimOptions{});
  sim.run_until_units(100.0);
  EXPECT_THROW(sim.run_until_units(50.0), std::invalid_argument);
}

// A NaN rate is refused before anything is queued (std::clamp would pass
// it through, and the period llround(1/NaN) is undefined). ±inf still
// clamps to the task's bounds.
TEST(SimulatorTest, SetRatesRejectsNaN) {
  const SystemSpec spec = workloads::medium();
  Simulator sim(spec, SimOptions{});
  sim.run_until_units(1000.0);
  (void)sim.sample_utilizations();
  const std::vector<double> before = sim.current_rates();
  std::vector<double> rates = before;
  rates[0] = std::nan("");
  EXPECT_THROW(sim.set_rates(rates), std::invalid_argument);
  EXPECT_NO_THROW(sim.run_until_units(3000.0));
  EXPECT_EQ(sim.current_rates(), before);
  const std::vector<double> u = sim.sample_utilizations();
  for (double x : u) EXPECT_TRUE(std::isfinite(x));

  rates[0] = std::numeric_limits<double>::infinity();
  rates[1] = -std::numeric_limits<double>::infinity();
  sim.set_rates(rates);
  sim.run_until_units(4000.0);
  EXPECT_EQ(sim.current_rates()[0], spec.tasks[0].rate_max);
  EXPECT_EQ(sim.current_rates()[1], spec.tasks[1].rate_min);
}

TEST(SimulatorTest, SetRatesSizeMismatchThrows) {
  Simulator sim(one_task(10.0, 100.0), SimOptions{});
  EXPECT_THROW(sim.set_rates({0.1, 0.1}), std::invalid_argument);
}

TEST(SimulatorTest, EtfStepChangesMeasuredLoad) {
  SimOptions opts;
  opts.etf = EtfProfile::steps({{0.0, 0.5}, {1000.0, 1.5}});
  Simulator sim(one_task(20.0, 100.0), opts);
  sim.run_until_units(1000.0);
  EXPECT_NEAR(sim.sample_utilizations()[0], 0.10, 1e-6);
  sim.run_until_units(2000.0);
  // Jobs released in the second window are 1.5x: u = 0.3 (small carryover
  // tolerance for the job released at exactly t=1000).
  EXPECT_NEAR(sim.sample_utilizations()[0], 0.30, 0.02);
}

TEST(SimulatorTest, JobAccountingConsistent) {
  Simulator sim(chain_task(10.0, 10.0, 50.0), SimOptions{});
  sim.run_until_units(5000.0);
  const auto& st = sim.deadline_stats();
  // Released instances: one per period from t=0: 100 in 5000 units.
  EXPECT_GE(st.task(0).instances_released, 99u);
  EXPECT_LE(st.task(0).instances_released, 101u);
  // All but the in-flight tail completed.
  EXPECT_GE(st.task(0).instances_completed + 3,
            st.task(0).instances_released);
}

// A preemption-heavy RMS set: a 2-unit task every 10 units and a
// 3-then-2-unit chain every 13 outrank a 40-unit job every 97, which they
// preempt several times per instance. With no rate changes nothing is
// superseded, so every popped event is live: a task or subtask release
// (one traced job release each) or the running job's completion (one
// traced completion each). Preemptions leave no stale completion behind.
TEST(SimulatorTest, PreemptionHeavySetPopsOnlyLiveEvents) {
  SystemSpec s;
  s.num_processors = 2;
  const auto task = [](std::string name, std::vector<SubtaskSpec> subs,
                       double period) {
    TaskSpec t;
    t.name = std::move(name);
    t.subtasks = std::move(subs);
    t.rate_min = 1.0 / (period * 10.0);
    t.rate_max = 1.0 / 2.0;
    t.initial_rate = 1.0 / period;
    return t;
  };
  s.tasks.push_back(task("fast", {{0, 2.0}}, 10.0));
  s.tasks.push_back(task("slow", {{0, 40.0}, {1, 10.0}}, 97.0));
  s.tasks.push_back(task("chain", {{1, 3.0}, {0, 2.0}}, 13.0));
  SimOptions opts;
  opts.jitter = 0.1;
  opts.enable_trace = true;
  Simulator sim(s, opts);
  sim.run_until_units(20000.0);

  std::uint64_t releases = 0;
  std::uint64_t completions = 0;
  std::uint64_t preemptions = 0;
  for (const TraceRecord& r : sim.trace().records()) {
    releases += r.kind == TraceKind::kRelease ? 1 : 0;
    completions += r.kind == TraceKind::kCompletion ? 1 : 0;
    preemptions += r.kind == TraceKind::kPreempt ? 1 : 0;
  }
  EXPECT_EQ(releases, sim.jobs_released());
  EXPECT_GT(preemptions, 500u);
  EXPECT_EQ(sim.events_popped(), releases + completions);
}

}  // namespace
}  // namespace eucon::rts
