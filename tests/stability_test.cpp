#include "control/stability.h"

#include <gtest/gtest.h>

#include <cmath>

#include "control/sparse_model.h"
#include "eucon/workloads.h"

namespace eucon::control {
namespace {

using linalg::Matrix;
using linalg::Vector;

StabilityAnalyzer simple_analyzer() {
  return StabilityAnalyzer(make_plant_model(workloads::simple()),
                           workloads::simple_controller_params());
}

TEST(StabilityTest, GainDimensions) {
  const StabilityAnalyzer an = simple_analyzer();
  EXPECT_EQ(an.k1().rows(), 3u);  // m×n
  EXPECT_EQ(an.k1().cols(), 2u);
  EXPECT_EQ(an.k2().rows(), 3u);  // m×m
  EXPECT_EQ(an.k2().cols(), 3u);
}

// With negligible control penalty the unconstrained MPC law satisfies
// F K1 = s̄ I with s̄ the mean reference shape (1/P) Σ (1 - e^{-i/(Tref/Ts)})
// — the key structural property behind the critical-gain formula 2/s̄.
TEST(StabilityTest, FK1IsScaledIdentity) {
  const StabilityAnalyzer an = simple_analyzer();
  const PlantModel model = make_plant_model(workloads::simple());
  const Matrix fk1 = model.f * an.k1();
  const double sbar =
      ((1.0 - std::exp(-0.25)) + (1.0 - std::exp(-0.5))) / 2.0;
  EXPECT_NEAR(fk1(0, 0), sbar, 1e-3);
  EXPECT_NEAR(fk1(1, 1), sbar, 1e-3);
  EXPECT_NEAR(fk1(0, 1), 0.0, 1e-3);
  EXPECT_NEAR(fk1(1, 0), 0.0, 1e-3);
}

TEST(StabilityTest, StableAtNominalGain) {
  const StabilityAnalyzer an = simple_analyzer();
  EXPECT_TRUE(an.is_stable_uniform(1.0));
  EXPECT_LT(an.spectral_radius_uniform(1.0), 1.0);
}

TEST(StabilityTest, UnstableAtGainSeven) {
  // The paper's Figure 3(b)/Figure 4 observation: etf = 7 is unstable.
  const StabilityAnalyzer an = simple_analyzer();
  EXPECT_FALSE(an.is_stable_uniform(7.0));
}

TEST(StabilityTest, CriticalGainNearTwoOverSbar) {
  // Closed form: g* = 2 / s̄ ≈ 6.51 for P=2, M=1, Tref/Ts=4 (the paper's
  // §6.2 quotes 5.95; its own simulations show instability between 6.5 and
  // 7, matching this bound — see EXPERIMENTS.md).
  const StabilityAnalyzer an = simple_analyzer();
  const double sbar =
      ((1.0 - std::exp(-0.25)) + (1.0 - std::exp(-0.5))) / 2.0;
  EXPECT_NEAR(an.critical_uniform_gain(), 2.0 / sbar, 0.05);
}

TEST(StabilityTest, SpectralRadiusMatchesClosedFormAcrossGains) {
  const StabilityAnalyzer an = simple_analyzer();
  const double sbar =
      ((1.0 - std::exp(-0.25)) + (1.0 - std::exp(-0.5))) / 2.0;
  for (double g : {0.5, 1.0, 2.0, 3.0, 4.0}) {
    // Dominant eigenvalue of (1 - g s̄) I, up to the tiny penalty term.
    EXPECT_NEAR(an.spectral_radius_uniform(g), std::abs(1.0 - g * sbar), 0.01)
        << "g = " << g;
  }
}

TEST(StabilityTest, NonUniformGains) {
  const StabilityAnalyzer an = simple_analyzer();
  EXPECT_TRUE(an.is_stable(Vector{0.5, 3.0}));
  EXPECT_FALSE(an.is_stable(Vector{8.0, 8.0}));
}

TEST(StabilityTest, MediumControllerStableAtNominal) {
  StabilityAnalyzer an(make_plant_model(workloads::medium()),
                       workloads::medium_controller_params());
  EXPECT_TRUE(an.is_stable_uniform(1.0));
  EXPECT_TRUE(an.is_stable_uniform(0.1));
  EXPECT_GT(an.critical_uniform_gain(), 3.0);
}

TEST(StabilityTest, ClosedLoopMatrixDimensions) {
  const StabilityAnalyzer an = simple_analyzer();
  const Matrix a = an.closed_loop_matrix(Vector{1.0, 1.0});
  EXPECT_EQ(a.rows(), 5u);  // n + m = 2 + 3
  EXPECT_EQ(a.cols(), 5u);
}

TEST(StabilityTest, RejectsWrongGainSize) {
  const StabilityAnalyzer an = simple_analyzer();
  EXPECT_THROW(an.closed_loop_matrix(Vector{1.0}), std::invalid_argument);
}

TEST(StabilityTest, RejectsBadSearchParameters) {
  const StabilityAnalyzer an = simple_analyzer();
  EXPECT_THROW(an.critical_uniform_gain(-1.0), std::invalid_argument);
  EXPECT_THROW(an.critical_uniform_gain(10.0, 0.0), std::invalid_argument);
}

// The analysis must predict the simulation: for gains sampled on both
// sides of the critical gain, the linear plant under the real controller
// behaves as the eigenvalues say.
class StabilityPrediction : public ::testing::TestWithParam<double> {};

TEST_P(StabilityPrediction, AnalysisAgreesWithLinearPlantSimulation) {
  const double gain = GetParam();
  const PlantModel model = make_plant_model(workloads::simple());
  const MpcParams params = workloads::simple_controller_params();
  const StabilityAnalyzer an(model, params);

  // Simulate with bounds wide open so the law stays linear.
  PlantModel wide = model;
  for (std::size_t j = 0; j < wide.num_tasks(); ++j) {
    wide.rate_min[j] = 1e-9;
    wide.rate_max[j] = 10.0;
  }
  MpcParams soft = params;
  soft.constraint_mode = ConstraintMode::kSoftOnly;
  const Vector r0 = workloads::simple().initial_rate_vector();
  MpcController ctrl(wide, soft, r0);
  SparseLinearPlant plant(sparsify(wide), Vector{gain, gain}, r0);
  // Nudge off the equilibrium and watch whether the error contracts.
  plant.set_utilization(Vector{0.4, 0.4});
  Vector u = plant.utilization();
  double late_error = 0.0;
  for (int k = 0; k < 400; ++k) {
    u = plant.step(ctrl.update(u));
    if (k >= 350) late_error += std::abs(u[0] - model.b[0]);
  }
  late_error /= 50.0;
  if (an.is_stable_uniform(gain) &&
      an.spectral_radius_uniform(gain) < 0.97) {
    EXPECT_LT(late_error, 0.01) << "gain " << gain << " should be stable";
  }
  if (an.spectral_radius_uniform(gain) > 1.03) {
    EXPECT_GT(late_error, 0.02) << "gain " << gain << " should be unstable";
  }
}

INSTANTIATE_TEST_SUITE_P(Gains, StabilityPrediction,
                         ::testing::Values(0.5, 1.0, 2.0, 4.0, 6.0, 7.0, 8.0));

}  // namespace
}  // namespace eucon::control
