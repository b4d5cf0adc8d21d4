// Schedulability analysis, and its agreement with the event simulator.
#include "rts/analysis.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "rts/simulator.h"

namespace eucon::rts {
namespace {

TEST(BoundsTest, LiuLaylandValues) {
  EXPECT_DOUBLE_EQ(liu_layland_bound(1), 1.0);
  EXPECT_NEAR(liu_layland_bound(2), 0.8284, 1e-4);
  EXPECT_NEAR(liu_layland_bound(3), 0.7798, 1e-4);
  // n -> inf: ln 2.
  EXPECT_NEAR(liu_layland_bound(100000), std::log(2.0), 1e-4);
  EXPECT_THROW(liu_layland_bound(0), std::invalid_argument);
}

TEST(BoundsTest, HyperbolicSharperThanLiuLayland) {
  // Two tasks at u = 0.43 each: total 0.86 > LL bound 0.828 but
  // (1.43)^2 = 2.0449 > 2 -> hyperbolic also rejects. Use 0.41 + 0.42:
  // (1.41)(1.42) = 2.0022 > 2 rejects; 0.40 + 0.42: 1.4*1.42 = 1.988 <= 2
  // accepts although total 0.82 ~ at the LL bound.
  std::vector<PeriodicLoad> accept{{4.0, 10.0}, {8.4, 20.0}};  // 0.40 + 0.42
  EXPECT_TRUE(hyperbolic_check(accept));
  std::vector<PeriodicLoad> reject{{4.1, 10.0}, {8.4, 20.0}};  // 0.41 + 0.42
  EXPECT_FALSE(hyperbolic_check(reject));
}

TEST(BoundsTest, EdfBoundIsOne) {
  std::vector<PeriodicLoad> ok{{5.0, 10.0}, {5.0, 10.0}};  // exactly 1.0
  EXPECT_TRUE(edf_schedulable(ok));
  std::vector<PeriodicLoad> over{{5.1, 10.0}, {5.0, 10.0}};
  EXPECT_FALSE(edf_schedulable(over));
}

TEST(RtaTest, SingleTaskResponseIsExecution) {
  const auto r = rms_response_times({{3.0, 10.0}});
  ASSERT_TRUE(r[0].has_value());
  EXPECT_DOUBLE_EQ(*r[0], 3.0);
}

TEST(RtaTest, TextbookTwoTask) {
  // T1: C=2, T=5; T2: C=4, T=14. R1 = 2; R2 solves R = 4 + ceil(R/5)*2:
  // 4 -> 6 -> 8 -> 8 (T1 runs [0,2) and [5,7); T2 finishes at 8).
  const auto r = rms_response_times({{2.0, 5.0}, {4.0, 14.0}});
  ASSERT_TRUE(r[0].has_value());
  ASSERT_TRUE(r[1].has_value());
  EXPECT_DOUBLE_EQ(*r[0], 2.0);
  EXPECT_DOUBLE_EQ(*r[1], 8.0);
}

TEST(RtaTest, ClassicUnschedulablePair) {
  // C1=2,T1=5; C2=4,T2=7: u = 0.971. RMS cannot schedule it (EDF can).
  const auto r = rms_response_times({{2.0, 5.0}, {4.0, 7.0}});
  EXPECT_TRUE(r[0].has_value());
  EXPECT_FALSE(r[1].has_value());
  EXPECT_FALSE(rms_schedulable({{2.0, 5.0}, {4.0, 7.0}}));
  EXPECT_TRUE(edf_schedulable({{2.0, 5.0}, {4.0, 7.0}}));
}

TEST(RtaTest, InputOrderIrrelevant) {
  const auto a = rms_response_times({{2.0, 5.0}, {4.0, 14.0}});
  const auto b = rms_response_times({{4.0, 14.0}, {2.0, 5.0}});
  EXPECT_DOUBLE_EQ(*a[0], *b[1]);
  EXPECT_DOUBLE_EQ(*a[1], *b[0]);
}

TEST(RtaTest, FullUtilizationHarmonicSet) {
  // Harmonic periods reach u = 1 under RMS: C=1,T=2; C=2,T=4.
  EXPECT_TRUE(rms_schedulable({{1.0, 2.0}, {2.0, 4.0}}));
}

// Property: whenever RTA says schedulable, the deterministic simulator
// never misses a subtask deadline; whenever RTA proves a task
// unschedulable at its critical instant, the simulator (synchronous
// release at t = 0 is the critical instant) misses.
class RtaVsSimulator : public ::testing::TestWithParam<int> {};

TEST_P(RtaVsSimulator, AnalysisPredictsSimulation) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 17 + 3);
  // Random independent single-subtask tasks on one processor.
  const int n = 2 + GetParam() % 3;
  SystemSpec spec;
  spec.num_processors = 1;
  std::vector<PeriodicLoad> loads;
  for (int i = 0; i < n; ++i) {
    const double period = rng.uniform(40.0, 400.0);
    const double exec = period * rng.uniform(0.1, 0.45);
    TaskSpec t;
    t.name = std::string("T").append(std::to_string(i));
    t.subtasks = {{0, exec}};
    t.initial_rate = 1.0 / period;
    t.rate_min = t.initial_rate / 100.0;
    t.rate_max = t.initial_rate;
    spec.tasks.push_back(t);
    loads.push_back({exec, period});
  }
  spec.validate();

  Simulator sim(spec, SimOptions{});  // deterministic, etf = 1
  sim.run_until_units(50000.0);
  const double miss = sim.deadline_stats().subtask_miss_ratio();

  if (rms_schedulable(loads)) {
    EXPECT_DOUBLE_EQ(miss, 0.0) << "analysis says schedulable";
  } else {
    EXPECT_GT(miss, 0.0) << "analysis says unschedulable from t=0";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RtaVsSimulator, ::testing::Range(1, 31));

// Observed worst responses never exceed the analytic worst case
// (deterministic execution times, deadline = period).
TEST(RtaVsSimulatorTest, ObservedResponseBoundedByAnalysis) {
  SystemSpec spec;
  spec.num_processors = 1;
  const std::vector<PeriodicLoad> loads{{2.0, 5.0}, {4.0, 14.0}};
  for (std::size_t i = 0; i < loads.size(); ++i) {
    TaskSpec t;
    t.name = std::string("T").append(std::to_string(i));
    t.subtasks = {{0, loads[i].exec}};
    t.initial_rate = 1.0 / loads[i].period;
    t.rate_min = t.initial_rate / 10.0;
    t.rate_max = t.initial_rate;
    spec.tasks.push_back(t);
  }
  Simulator sim(spec, SimOptions{});
  sim.run_until_units(20000.0);
  const auto rta = rms_response_times(loads);
  for (std::size_t i = 0; i < loads.size(); ++i) {
    const double observed_worst =
        sim.deadline_stats().task(i).response_time_units.max();
    EXPECT_LE(observed_worst, *rta[i] + 1e-6) << "task " << i;
  }
  // And the critical instant (synchronous start) attains the bound.
  EXPECT_NEAR(sim.deadline_stats().task(1).response_time_units.max(),
              *rta[1], 1e-6);
}

}  // namespace
}  // namespace eucon::rts
