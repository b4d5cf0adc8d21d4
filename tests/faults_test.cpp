// Failure injection: lossy feedback lanes and task suspension.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "eucon/eucon.h"
#include "eucon/feedback_lane.h"

namespace eucon {
namespace {

ExperimentConfig base_config() {
  ExperimentConfig cfg;
  cfg.spec = workloads::simple();
  cfg.mpc = workloads::simple_controller_params();
  cfg.sim.etf = rts::EtfProfile::constant(0.5);
  cfg.sim.jitter = 0.1;
  cfg.sim.seed = 42;
  cfg.num_periods = 300;
  return cfg;
}

TEST(FaultsTest, NoLossByDefault) {
  const ExperimentResult res = run_experiment(base_config());
  EXPECT_EQ(res.summary.lost_reports, 0u);
}

TEST(FaultsTest, LossCountMatchesProbability) {
  ExperimentConfig cfg = base_config();
  cfg.report_loss_probability = 0.2;
  const ExperimentResult res = run_experiment(cfg);

  // The lanes' RNG stream depends only on (seed, loss probability) and each
  // deliver() consumes exactly one draw per processor, so a shadow instance
  // fed the same number of periods predicts the loss count exactly — no
  // statistical tolerance needed.
  FeedbackLanes shadow(2, cfg.report_loss_probability, cfg.sim.seed);
  const linalg::Vector probe(2, 0.5);
  for (int k = 0; k < cfg.num_periods; ++k) (void)shadow.deliver(probe);
  EXPECT_EQ(res.summary.lost_reports, shadow.lost_reports());

  // And the realized count must be statistically sane for Binomial(600,
  // 0.2): mean 120, sigma = sqrt(600 * 0.2 * 0.8) ~= 9.8; a 6-sigma band
  // (~59) only fails on a broken RNG, never on an unlucky seed.
  const double n = 2.0 * static_cast<double>(cfg.num_periods);
  const double p = cfg.report_loss_probability;
  const double sigma = std::sqrt(n * p * (1.0 - p));
  EXPECT_NEAR(static_cast<double>(res.summary.lost_reports), n * p,
              6.0 * sigma);
}

TEST(FaultsTest, EuconToleratesModerateReportLoss) {
  ExperimentConfig cfg = base_config();
  cfg.report_loss_probability = 0.2;
  const ExperimentResult res = run_experiment(cfg);
  for (std::size_t p = 0; p < 2; ++p) {
    const auto a = metrics::acceptability(res, p);
    EXPECT_TRUE(a.acceptable())
        << "P" << p + 1 << " mean " << a.mean << " sd " << a.stddev;
  }
}

TEST(FaultsTest, HeavyLossDegradesButDoesNotDiverge) {
  ExperimentConfig cfg = base_config();
  cfg.report_loss_probability = 0.6;
  const ExperimentResult res = run_experiment(cfg);
  const auto a = metrics::utilization_stats(res, 0, 100);
  // Still hovering near the set point even with 60% of reports dropped
  // (stale measurements slow the loop but do not destabilize it at g<1).
  EXPECT_NEAR(a.mean(), 0.828, 0.08);
}

TEST(FaultsTest, LossIsDeterministicPerSeed) {
  ExperimentConfig cfg = base_config();
  cfg.report_loss_probability = 0.3;
  const ExperimentResult a = run_experiment(cfg);
  const ExperimentResult b = run_experiment(cfg);
  EXPECT_EQ(a.summary.lost_reports, b.summary.lost_reports);
  for (std::size_t i = 0; i < a.trace.size(); ++i)
    EXPECT_EQ(a.trace[i].u, b.trace[i].u);
}

TEST(FaultsTest, InvalidProbabilityRejected) {
  ExperimentConfig cfg = base_config();
  cfg.report_loss_probability = 1.0;
  EXPECT_THROW(run_experiment(cfg), std::invalid_argument);
  cfg.report_loss_probability = -0.1;
  EXPECT_THROW(run_experiment(cfg), std::invalid_argument);
}

TEST(FaultsTest, TaskSuspensionStopsReleases) {
  rts::Simulator sim(workloads::simple(), rts::SimOptions{});
  sim.run_until_units(5000.0);
  const auto released_before = sim.deadline_stats().task(2).instances_released;
  sim.set_task_enabled(2, false);
  EXPECT_FALSE(sim.task_enabled(2));
  sim.run_until_units(15000.0);
  const auto released_after = sim.deadline_stats().task(2).instances_released;
  EXPECT_LE(released_after, released_before + 1);  // nothing new releases
  // Other tasks unaffected.
  EXPECT_GT(sim.deadline_stats().task(0).instances_released,
            released_before * 2);
}

TEST(FaultsTest, TaskResumeRestartsReleases) {
  rts::Simulator sim(workloads::simple(), rts::SimOptions{});
  sim.run_until_units(2000.0);
  sim.set_task_enabled(0, false);
  sim.run_until_units(4000.0);
  const auto during = sim.deadline_stats().task(0).instances_released;
  sim.set_task_enabled(0, true);
  EXPECT_TRUE(sim.task_enabled(0));
  sim.run_until_units(8000.0);
  EXPECT_GT(sim.deadline_stats().task(0).instances_released, during + 10);
}

TEST(FaultsTest, SuspensionLowersUtilization) {
  rts::Simulator sim(workloads::simple(), rts::SimOptions{});
  sim.run_until_units(5000.0);
  const double before = sim.sample_utilizations()[0];
  sim.set_task_enabled(0, false);  // T1 contributes 35/60 of P1's load
  sim.run_until_units(10000.0);
  const double after = sim.sample_utilizations()[0];
  EXPECT_LT(after, before - 0.3);
}

TEST(FaultsTest, UnknownTaskIndexRejected) {
  rts::Simulator sim(workloads::simple(), rts::SimOptions{});
  EXPECT_THROW(sim.set_task_enabled(5, false), std::invalid_argument);
  EXPECT_THROW(sim.task_enabled(-1), std::invalid_argument);
}

TEST(FaultsTest, GilbertElliottMatchesStationaryLossClosedForm) {
  faults::FaultPlan plan;
  plan.lane_loss = {0.05, 0.25, 0.02, 0.8};
  const std::size_t lanes = 4;
  const int periods = 5000;
  faults::FaultInjector inj(plan, lanes, 99);
  for (int k = 1; k <= periods; ++k) inj.begin_period(k);

  const double n = static_cast<double>(lanes) * periods;
  const double p = plan.lane_loss.stationary_loss();
  EXPECT_NEAR(p, 0.15, 1e-12);  // (5/6)*0.02 + (1/6)*0.8
  // The chain correlates successive periods (lag-one correlation
  // rho = 1 - p_enter - p_exit > 0 here), which inflates the binomial
  // variance by at most (1 + rho) / (1 - rho); a 6-sigma band on that
  // upper bound only fails on a broken chain, never on an unlucky seed.
  const double rho = 1.0 - plan.lane_loss.p_enter - plan.lane_loss.p_exit;
  const double sigma =
      std::sqrt(n * p * (1.0 - p) * (1.0 + rho) / (1.0 - rho));
  EXPECT_NEAR(static_cast<double>(inj.forced_losses_total()), n * p,
              6.0 * sigma);
}

TEST(FaultsTest, ScriptedOutageForcesExactLossCount) {
  ExperimentConfig cfg = base_config();
  cfg.faults.lane_outages.push_back({0, 5, 10});  // lane 0 down, k = 5..14
  const ExperimentResult res = run_experiment(cfg);
  EXPECT_EQ(res.summary.forced_losses, 10u);
  EXPECT_EQ(res.summary.lost_reports, 10u);  // no i.i.d. loss on top
  EXPECT_EQ(res.summary.max_staleness, 10);
}

TEST(FaultsTest, ColdStartLossHoldsRatesAtSetPoint) {
  // Regression for the cold-start phantom-idle bug: losing every report in
  // the very first period must not move the rates. The lanes now seed
  // "last delivered" with the set points, so a period-1 loss reads as "on
  // target" and the MPC commands no change.
  ExperimentConfig cfg = base_config();
  cfg.num_periods = 3;
  for (int p = 0; p < cfg.spec.num_processors; ++p)
    cfg.faults.lane_outages.push_back({p, 1, 1});
  const ExperimentResult res = run_experiment(cfg);

  const linalg::Vector r0 = cfg.spec.initial_rate_vector();
  double delta = 0.0;
  for (std::size_t j = 0; j < r0.size(); ++j)
    delta = std::max(delta, std::abs(res.trace[0].rates[j] - r0[j]));
  EXPECT_LT(delta, 1e-9);

  // The old initialization (last delivered = 0) reported phantom-idle
  // processors and slammed the rates upward — keep that failure mode
  // pinned via the lane_initial override.
  ExperimentConfig old = cfg;
  old.lane_initial =
      linalg::Vector(static_cast<std::size_t>(cfg.spec.num_processors), 0.0);
  const ExperimentResult bug = run_experiment(old);
  double raised = 0.0;
  for (std::size_t j = 0; j < r0.size(); ++j)
    raised = std::max(raised, bug.trace[0].rates[j] - r0[j]);
  EXPECT_GT(raised, 1e-3);
}

}  // namespace
}  // namespace eucon
