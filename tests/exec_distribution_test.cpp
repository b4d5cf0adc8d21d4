// Execution-time distribution shapes beyond the uniform default.
#include <gtest/gtest.h>

#include "common/stats.h"
#include "eucon/eucon.h"
#include "rts/etf.h"

namespace eucon::rts {
namespace {

ExecModelParams params_for(ExecDistribution dist) {
  ExecModelParams p;
  p.distribution = dist;
  p.jitter = 0.2;
  return p;
}

TEST(ExecDistributionTest, AllShapesHaveUnitMean) {
  for (auto dist : {ExecDistribution::kUniform, ExecDistribution::kExponential,
                    ExecDistribution::kBimodal}) {
    const EtfProfile profile = EtfProfile::constant(1.0);
    const ExecModelParams params = params_for(dist);
    Rng rng(3);
    RunningStats s;
    const double c = 50.0;
    for (int i = 0; i < 60000; ++i)
      s.add(ticks_to_units(draw_exec_time(profile, params, rng, c, 0)));
    EXPECT_NEAR(s.mean(), c, c * 0.02) << "distribution " << static_cast<int>(dist);
  }
}

TEST(ExecDistributionTest, ExponentialHasHeavierTail) {
  const EtfProfile profile = EtfProfile::constant(1.0);
  const ExecModelParams uni = params_for(ExecDistribution::kUniform);
  const ExecModelParams expo = params_for(ExecDistribution::kExponential);
  Rng uni_rng(5), expo_rng(5);
  const double c = 10.0;
  double uni_max = 0, expo_max = 0;
  for (int i = 0; i < 20000; ++i) {
    uni_max = std::max(
        uni_max, ticks_to_units(draw_exec_time(profile, uni, uni_rng, c, 0)));
    expo_max = std::max(
        expo_max,
        ticks_to_units(draw_exec_time(profile, expo, expo_rng, c, 0)));
  }
  EXPECT_LE(uni_max, c * 1.2 + 1e-9);  // bounded band
  EXPECT_GT(expo_max, c * 3.0);        // unbounded tail shows up
}

TEST(ExecDistributionTest, BimodalHitsExactlyTwoValues) {
  ExecModelParams p = params_for(ExecDistribution::kBimodal);
  p.burst_prob = 0.2;
  p.burst_factor = 2.0;
  const EtfProfile profile = EtfProfile::constant(1.0);
  Rng rng(7);
  const double c = 30.0;
  const double nominal = c * (1.0 - 0.2 * 2.0) / 0.8;  // 22.5
  int bursts = 0;
  const int trials = 20000;
  for (int i = 0; i < trials; ++i) {
    const double v = ticks_to_units(draw_exec_time(profile, p, rng, c, 0));
    if (std::abs(v - 60.0) < 1e-6)
      ++bursts;
    else
      EXPECT_NEAR(v, nominal, 1e-6);
  }
  EXPECT_NEAR(static_cast<double>(bursts) / trials, 0.2, 0.02);
}

TEST(ExecDistributionTest, BimodalParamsValidated) {
  ExecModelParams p = params_for(ExecDistribution::kBimodal);
  p.burst_prob = 0.5;
  p.burst_factor = 3.0;  // 1.5 >= 1: cannot keep unit mean
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p.burst_factor = 0.5;  // must exceed 1
  EXPECT_THROW(p.validate(), std::invalid_argument);
}

TEST(ExecDistributionTest, EuconStillControlsBurstyWorkloads) {
  // Heavy-tailed service times raise the utilization measurement noise
  // (sigma ~0.08); the hard u <= B constraint reacts to every upward
  // excursion, so the mean settles conservatively *below* the set point —
  // overload protection holds, at a modest utilization cost.
  ExperimentConfig cfg;
  cfg.spec = workloads::medium();
  cfg.mpc = workloads::medium_controller_params();
  cfg.sim.etf = rts::EtfProfile::constant(0.5);
  cfg.sim.exec_distribution = ExecDistribution::kExponential;
  cfg.sim.seed = 11;
  cfg.num_periods = 300;
  const ExperimentResult res = run_experiment(cfg);
  for (std::size_t p = 0; p < 4; ++p) {
    const auto a = metrics::acceptability(res, p, 100);
    EXPECT_LE(a.mean, a.set_point + 0.02)
        << "P" << p + 1 << ": overload protection must hold";
    EXPECT_GE(a.mean, a.set_point - 0.08)
        << "P" << p + 1 << ": conservatism stays bounded";
    EXPECT_LT(a.stddev, 0.12) << "P" << p + 1;
  }
}

}  // namespace
}  // namespace eucon::rts
