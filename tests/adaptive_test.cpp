// On-line gain estimation and the adaptive (self-tuning) controller.
#include <gtest/gtest.h>

#include "control/adaptive.h"
#include "control/sparse_model.h"
#include "eucon/eucon.h"

namespace eucon::control {
namespace {

using linalg::Vector;

TEST(GainEstimatorTest, StartsAtUnity) {
  GainEstimator est(3);
  for (double g : est.gains().data()) EXPECT_DOUBLE_EQ(g, 1.0);
  EXPECT_EQ(est.updates_applied(), 0u);
}

TEST(GainEstimatorTest, ConvergesToTrueGainOnCleanData) {
  GainEstimator est(2);
  Rng rng(5);
  const double g_true[2] = {3.0, 0.4};
  for (int k = 0; k < 150; ++k) {
    Vector db{rng.uniform(-0.1, 0.1), rng.uniform(-0.1, 0.1)};
    Vector du{g_true[0] * db[0], g_true[1] * db[1]};
    est.update(db, du);
  }
  EXPECT_NEAR(est.gains()[0], 3.0, 0.05);
  EXPECT_NEAR(est.gains()[1], 0.4, 0.05);
}

TEST(GainEstimatorTest, ConvergesUnderMeasurementNoise) {
  GainEstimator est(1);
  Rng rng(7);
  for (int k = 0; k < 400; ++k) {
    const double db = rng.uniform(-0.1, 0.1);
    const double du = 2.5 * db + rng.uniform(-0.01, 0.01);
    est.update(Vector{db}, Vector{du});
  }
  EXPECT_NEAR(est.gains()[0], 2.5, 0.2);
}

TEST(GainEstimatorTest, SkipsUnexcitedUpdates) {
  GainEstimator est(1);
  est.update(Vector{1e-9}, Vector{0.5});  // no excitation: ignore
  EXPECT_DOUBLE_EQ(est.gains()[0], 1.0);
  EXPECT_EQ(est.updates_applied(), 0u);
}

TEST(GainEstimatorTest, TracksDriftingGain) {
  GainEstimatorParams p;
  p.forgetting = 0.9;
  GainEstimator est(1, p);
  Rng rng(9);
  for (int k = 0; k < 200; ++k)  // first regime: g = 1
    est.update(Vector{rng.uniform(0.02, 0.1)}, Vector{1.0 * rng.uniform(0.02, 0.1)});
  for (int k = 0; k < 200; ++k) {  // second regime: g = 4
    const double db = rng.uniform(0.02, 0.1);
    est.update(Vector{db}, Vector{4.0 * db});
  }
  EXPECT_NEAR(est.gains()[0], 4.0, 0.3);
}

TEST(GainEstimatorTest, ClampsToConfiguredRange) {
  GainEstimatorParams p;
  p.max_gain = 5.0;
  GainEstimator est(1, p);
  for (int k = 0; k < 50; ++k) est.update(Vector{0.1}, Vector{5.0});  // g ~ 50
  EXPECT_LE(est.gains()[0], 5.0);
}

TEST(GainEstimatorTest, RejectsBadParams) {
  GainEstimatorParams p;
  p.forgetting = 0.0;
  EXPECT_THROW(GainEstimator(1, p), std::invalid_argument);
  p = GainEstimatorParams{};
  p.min_gain = 2.0;
  p.max_gain = 1.0;
  EXPECT_THROW(GainEstimator(1, p), std::invalid_argument);
}

TEST(MpcGainEstimateTest, ScalesThePredictionModel) {
  const PlantModel model = make_plant_model(workloads::simple());
  MpcController ctrl(model, workloads::simple_controller_params(),
                     workloads::simple().initial_rate_vector());
  ctrl.set_gain_estimate(Vector{2.0, 2.0});
  // With ĝ = g the loop behaves like the nominal (g = 1) case: converges
  // fast and smoothly on a plant with true gain 2.
  SparseLinearPlant plant(sparsify(model), Vector{2.0, 2.0},
                          workloads::simple().initial_rate_vector());
  Vector u = plant.utilization();
  for (int k = 0; k < 60; ++k) u = plant.step(ctrl.update(u));
  EXPECT_NEAR(u[0], model.b[0], 2e-3);
  EXPECT_THROW(ctrl.set_gain_estimate(Vector{1.0}), std::invalid_argument);
  EXPECT_THROW(ctrl.set_gain_estimate(Vector{0.0, 1.0}), std::invalid_argument);
}

TEST(AdaptiveMpcTest, StableBeyondFixedModelCriticalGain) {
  // True gain 8 > 6.5: fixed EUCON diverges (MpcControllerTest covers
  // that); the adaptive controller learns ĝ ≈ 8 and settles.
  PlantModel model = make_plant_model(workloads::simple());
  for (std::size_t j = 0; j < model.num_tasks(); ++j) {
    model.rate_min[j] = 1e-9;
    model.rate_max[j] = 10.0;
  }
  const Vector r0 = workloads::simple().initial_rate_vector();
  AdaptiveMpcController ctrl(model, workloads::simple_controller_params(), r0);
  SparseLinearPlant plant(sparsify(model), Vector{8.0, 8.0}, r0);
  plant.set_utilization(Vector{0.4, 0.4});
  Vector u = plant.utilization();
  for (int k = 0; k < 200; ++k) u = plant.step(ctrl.update(u));
  EXPECT_NEAR(u[0], model.b[0], 0.01);
  // The estimator learns only while the loop is excited: it raises ĝ far
  // enough that the effective gain g/ĝ enters the stable region, then the
  // excitation (rate changes) dies out and the estimate freezes.
  EXPECT_GT(ctrl.gain_estimate()[0], 2.0);
  EXPECT_LT(8.0 / ctrl.gain_estimate()[0], 6.0);
}

TEST(AdaptiveMpcTest, MatchesFixedControllerAtNominalGain) {
  const PlantModel model = make_plant_model(workloads::simple());
  const Vector r0 = workloads::simple().initial_rate_vector();
  AdaptiveMpcController ctrl(model, workloads::simple_controller_params(), r0);
  SparseLinearPlant plant(sparsify(model), Vector{1.0, 1.0}, r0);
  Vector u = plant.utilization();
  for (int k = 0; k < 80; ++k) u = plant.step(ctrl.update(u));
  EXPECT_NEAR(u[0], model.b[0], 2e-3);
  EXPECT_NEAR(ctrl.gain_estimate()[0], 1.0, 0.2);
}

TEST(AdaptiveMpcTest, FullSimulationSmoothWhereFixedOscillates) {
  // etf = 5 on the real simulator: fixed EUCON shows sigma ~0.13 (see
  // bench_fig4); adaptive EUCON stays much smoother.
  ExperimentConfig cfg;
  cfg.spec = workloads::simple();
  cfg.mpc = workloads::simple_controller_params();
  cfg.sim.etf = rts::EtfProfile::constant(5.0);
  cfg.sim.jitter = 0.1;
  cfg.sim.seed = 42;
  cfg.num_periods = 300;

  cfg.controller = ControllerKind::kEucon;
  const double sd_fixed =
      metrics::acceptability(run_experiment(cfg), 0).stddev;
  cfg.controller = ControllerKind::kAdaptive;
  const auto adaptive = run_experiment(cfg);
  const auto a = metrics::acceptability(adaptive, 0);
  EXPECT_LT(a.stddev, 0.6 * sd_fixed);
  EXPECT_NEAR(a.mean, 0.828, 0.04);
}

TEST(AdaptiveMpcTest, TracksTimeVaryingLoad) {
  ExperimentConfig cfg;
  cfg.spec = workloads::medium();
  cfg.controller = ControllerKind::kAdaptive;
  cfg.mpc = workloads::medium_controller_params();
  cfg.sim.etf = rts::EtfProfile::steps(
      {{0.0, 0.5}, {100000.0, 0.9}, {200000.0, 0.33}});
  cfg.sim.jitter = 0.2;
  cfg.sim.seed = 7;
  cfg.num_periods = 300;
  const ExperimentResult res = run_experiment(cfg);
  for (std::size_t p = 0; p < 4; ++p)
    EXPECT_TRUE(metrics::acceptability(res, p, 260, 300).acceptable())
        << "P" << p + 1;
}

}  // namespace
}  // namespace eucon::control
