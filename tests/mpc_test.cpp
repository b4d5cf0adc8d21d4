#include "control/mpc.h"

#include <gtest/gtest.h>

#include <cmath>

#include "control/sparse_model.h"
#include "eucon/workloads.h"
#include "linalg/qr.h"

namespace eucon::control {
namespace {

using linalg::Matrix;
using linalg::Vector;

PlantModel simple_model() { return make_plant_model(workloads::simple()); }

TEST(MpcParamsTest, Validation) {
  MpcParams p;
  p.prediction_horizon = 0;
  EXPECT_THROW(p.validate(2, 3), std::invalid_argument);
  p = MpcParams{};
  p.control_horizon = 3;  // > P = 2
  EXPECT_THROW(p.validate(2, 3), std::invalid_argument);
  p = MpcParams{};
  p.tref_over_ts = 0.0;
  EXPECT_THROW(p.validate(2, 3), std::invalid_argument);
  p = MpcParams{};
  p.q = Vector{1.0};  // wrong size for n = 2
  EXPECT_THROW(p.validate(2, 3), std::invalid_argument);
}

TEST(MpcMatricesTest, DimensionsMatchHorizons) {
  const PlantModel model = simple_model();
  MpcParams p = workloads::medium_controller_params();  // P=4, M=2
  const MpcMatrices mats = build_mpc_matrices(model, p);
  // rows = n*P + m*M = 2*4 + 3*2 = 14; cols = m*M = 6.
  EXPECT_EQ(mats.c.rows(), 14u);
  EXPECT_EQ(mats.c.cols(), 6u);
  EXPECT_EQ(mats.du.rows(), 14u);
  EXPECT_EQ(mats.du.cols(), 2u);
  EXPECT_EQ(mats.dr.cols(), 3u);
}

TEST(MpcMatricesTest, TrackingBlocksUseReferenceShape) {
  const PlantModel model = simple_model();
  const MpcParams p = workloads::simple_controller_params();  // P=2, M=1
  const MpcMatrices mats = build_mpc_matrices(model, p);
  // du row block i (i = 1..P) is diag((1 - e^{-i/4}) sqrt(q)).
  EXPECT_NEAR(mats.du(0, 0), 1.0 - std::exp(-0.25), 1e-12);
  EXPECT_NEAR(mats.du(2, 0), 1.0 - std::exp(-0.5), 1e-12);
  EXPECT_DOUBLE_EQ(mats.du(0, 1), 0.0);
  // Tracking rows of C are F (S_1 = I for M=1).
  EXPECT_DOUBLE_EQ(mats.c(0, 0), 35.0);
  EXPECT_DOUBLE_EQ(mats.c(1, 2), 45.0);
}

TEST(MpcMatricesTest, DeltaRatePenaltyHasNoDrCoupling) {
  const PlantModel model = simple_model();
  MpcParams p = workloads::simple_controller_params();
  p.penalty_form = PenaltyForm::kDeltaRate;
  const MpcMatrices mats = build_mpc_matrices(model, p);
  EXPECT_NEAR(mats.dr.frobenius_norm(), 0.0, 1e-15);
}

TEST(MpcMatricesTest, DeltaDeltaPenaltyCouplesPreviousInput) {
  const PlantModel model = simple_model();
  MpcParams p = workloads::simple_controller_params();
  p.penalty_form = PenaltyForm::kDeltaDeltaRate;
  const MpcMatrices mats = build_mpc_matrices(model, p);
  EXPECT_GT(mats.dr.frobenius_norm(), 0.5);
}

// With utilization far below B and wide rate bounds, the first update must
// equal the *unconstrained* least-squares solution.
TEST(MpcControllerTest, UnconstrainedUpdateMatchesAnalyticSolution) {
  PlantModel model = simple_model();
  // Widen the rate box so no constraint can activate.
  for (std::size_t j = 0; j < model.num_tasks(); ++j) {
    model.rate_min[j] = 1e-9;
    model.rate_max[j] = 1.0;
  }
  const MpcParams params = workloads::simple_controller_params();
  const Vector r0 = workloads::simple().initial_rate_vector();
  MpcController ctrl(model, params, r0);

  const Vector u{0.5, 0.5};
  const Vector rates = ctrl.update(u);

  const MpcMatrices mats = build_mpc_matrices(model, params);
  const Vector d = mats.du * (model.b - u);  // dr term is 0 for kDeltaRate
  const Vector x = linalg::least_squares(mats.c, d);
  for (std::size_t j = 0; j < 3; ++j)
    EXPECT_NEAR(rates[j], r0[j] + x[j], 1e-6) << "task " << j;
}

TEST(MpcControllerTest, ConvergesOnLinearPlantNominalGain) {
  const PlantModel model = simple_model();
  const Vector r0 = workloads::simple().initial_rate_vector();
  MpcController ctrl(model, workloads::simple_controller_params(), r0);
  SparseLinearPlant plant(sparsify(model), Vector{1.0, 1.0}, r0);

  Vector u = plant.utilization();
  for (int k = 0; k < 60; ++k) u = plant.step(ctrl.update(u));
  EXPECT_NEAR(u[0], model.b[0], 1e-3);
  EXPECT_NEAR(u[1], model.b[1], 1e-3);
}

TEST(MpcControllerTest, ConvergesOnLinearPlantMismatchedGains) {
  // Gains 0.5 and 2: the paper's robustness claim — still converges.
  const PlantModel model = simple_model();
  const Vector r0 = workloads::simple().initial_rate_vector();
  for (double g : {0.5, 2.0, 4.0}) {
    MpcController ctrl(model, workloads::simple_controller_params(), r0);
    SparseLinearPlant plant(sparsify(model), Vector{g, g}, r0);
    Vector u = plant.utilization();
    for (int k = 0; k < 150; ++k) u = plant.step(ctrl.update(u));
    EXPECT_NEAR(u[0], model.b[0], 5e-3) << "gain " << g;
    EXPECT_NEAR(u[1], model.b[1], 5e-3) << "gain " << g;
  }
}

TEST(MpcControllerTest, DivergesOnLinearPlantBeyondCriticalGain) {
  const PlantModel model = simple_model();
  const Vector r0 = workloads::simple().initial_rate_vector();
  MpcController ctrl(model, workloads::simple_controller_params(), r0);
  // Gain 8 > critical (~6.5): tracking error must not settle.
  SparseLinearPlant plant(sparsify(model), Vector{8.0, 8.0}, r0);
  Vector u = plant.utilization();
  double late_error = 0.0;
  for (int k = 0; k < 200; ++k) {
    u = plant.step(ctrl.update(u));
    if (k >= 150) late_error += std::abs(u[0] - model.b[0]);
  }
  EXPECT_GT(late_error / 50.0, 0.05);
}

TEST(MpcControllerTest, RespectsRateBounds) {
  const PlantModel model = simple_model();
  const Vector r0 = workloads::simple().initial_rate_vector();
  MpcController ctrl(model, workloads::simple_controller_params(), r0);
  // Deep underload: the controller pushes rates up, but never above R_max.
  for (int k = 0; k < 50; ++k) {
    const Vector rates = ctrl.update(Vector{0.05, 0.05});
    for (std::size_t j = 0; j < 3; ++j) {
      EXPECT_LE(rates[j], model.rate_max[j] + 1e-12);
      EXPECT_GE(rates[j], model.rate_min[j] - 1e-12);
    }
  }
  // After many periods of underload the rates sit at the max bound.
  const Vector final_rates = ctrl.update(Vector{0.05, 0.05});
  EXPECT_NEAR(final_rates[0], model.rate_max[0], 1e-9);
}

TEST(MpcControllerTest, OverloadDrivesRatesDown) {
  const PlantModel model = simple_model();
  const Vector r0 = workloads::simple().initial_rate_vector();
  MpcController ctrl(model, workloads::simple_controller_params(), r0);
  const Vector rates = ctrl.update(Vector{1.0, 1.0});
  for (std::size_t j = 0; j < 3; ++j) EXPECT_LT(rates[j], r0[j]);
}

TEST(MpcControllerTest, InfeasibleOverloadFallsBack) {
  PlantModel model = simple_model();
  // Shrink the rate range so u <= B cannot be met from overload in one step.
  for (std::size_t j = 0; j < 3; ++j) {
    model.rate_min[j] = model.rate_max[j] * 0.99;
  }
  const Vector r0 = model.rate_max;
  MpcController ctrl(model, workloads::simple_controller_params(), r0);
  (void)ctrl.update(Vector{1.0, 1.0});
  EXPECT_EQ(ctrl.fallback_count(), 1u);
}

TEST(MpcControllerTest, SoftOnlyModeNeverFallsBack) {
  PlantModel model = simple_model();
  for (std::size_t j = 0; j < 3; ++j) model.rate_min[j] = model.rate_max[j] * 0.99;
  MpcParams params = workloads::simple_controller_params();
  params.constraint_mode = ConstraintMode::kSoftOnly;
  MpcController ctrl(model, params, model.rate_max);
  (void)ctrl.update(Vector{1.0, 1.0});
  EXPECT_EQ(ctrl.fallback_count(), 0u);
}

TEST(MpcControllerTest, UtilizationConstraintEnforcedInPrediction) {
  // From u slightly above B, the chosen step must predict u(k+1) <= B.
  const PlantModel model = simple_model();
  const Vector r0 = workloads::simple().initial_rate_vector();
  MpcController ctrl(model, workloads::simple_controller_params(), r0);
  const Vector u{0.9, 0.9};
  const Vector rates = ctrl.update(u);
  const Vector predicted = u + model.f * (rates - r0);
  EXPECT_LE(predicted[0], model.b[0] + 1e-6);
  EXPECT_LE(predicted[1], model.b[1] + 1e-6);
}

TEST(MpcControllerTest, SetPointChangeRetargets) {
  const PlantModel model = simple_model();
  const Vector r0 = workloads::simple().initial_rate_vector();
  MpcController ctrl(model, workloads::simple_controller_params(), r0);
  ctrl.set_set_points(Vector{0.5, 0.5});
  SparseLinearPlant plant(sparsify(model), Vector{1.0, 1.0}, r0);
  Vector u = plant.utilization();
  for (int k = 0; k < 80; ++k) u = plant.step(ctrl.update(u));
  EXPECT_NEAR(u[0], 0.5, 1e-3);
  EXPECT_NEAR(u[1], 0.5, 1e-3);
}

TEST(MpcControllerTest, RejectsWrongSizes) {
  const PlantModel model = simple_model();
  EXPECT_THROW(MpcController(model, workloads::simple_controller_params(),
                             Vector{0.01}),
               std::invalid_argument);
  MpcController ctrl(model, workloads::simple_controller_params(),
                     workloads::simple().initial_rate_vector());
  EXPECT_THROW(ctrl.update(Vector{0.5}), std::invalid_argument);
  EXPECT_THROW(ctrl.set_set_points(Vector{0.5}), std::invalid_argument);
}

// Property sweep: in the linear operating regime (soft constraints, wide
// rate bounds) the controller settles for every gain inside the analytic
// stability region.
class MpcGainSweep : public ::testing::TestWithParam<double> {};

TEST_P(MpcGainSweep, SettlesWithinStableRegion) {
  const double gain = GetParam();
  PlantModel model = simple_model();
  for (std::size_t j = 0; j < model.num_tasks(); ++j) {
    model.rate_min[j] = 1e-9;
    model.rate_max[j] = 10.0;
  }
  MpcParams params = workloads::simple_controller_params();
  params.constraint_mode = ConstraintMode::kSoftOnly;
  const Vector r0 = workloads::simple().initial_rate_vector();
  MpcController ctrl(model, params, r0);
  SparseLinearPlant plant(sparsify(model), Vector{gain, gain}, r0);
  plant.set_utilization(Vector{0.4, 0.4});  // stay off the saturation rails
  Vector u = plant.utilization();
  for (int k = 0; k < 400; ++k) u = plant.step(ctrl.update(u));
  EXPECT_NEAR(u[0], model.b[0], 0.01) << "gain " << gain;
  EXPECT_NEAR(u[1], model.b[1], 0.01) << "gain " << gain;
}

INSTANTIATE_TEST_SUITE_P(Gains, MpcGainSweep,
                         ::testing::Values(0.1, 0.25, 0.5, 1.0, 1.5, 2.0, 3.0,
                                           4.0, 5.0, 6.0));

// With the *hard* utilization constraint active, excursions above B are
// corrected with the full unshaped step B - u(k). Under a large true gain
// the correction overshoots (u(k+1) = u + g(B - u)), producing a limit
// cycle — this is why the paper observes σ > 0.05 for etf in [4, 6]
// although the linear analysis says "stable" (§7.2).
TEST(MpcControllerTest, HardConstraintLimitCyclesAtHighGain) {
  const PlantModel model = simple_model();
  const Vector r0 = workloads::simple().initial_rate_vector();
  MpcController ctrl(model, workloads::simple_controller_params(), r0);
  SparseLinearPlant plant(sparsify(model), Vector{5.0, 5.0}, r0);
  Vector u = plant.utilization();
  double late_dev = 0.0;
  for (int k = 0; k < 300; ++k) {
    u = plant.step(ctrl.update(u));
    if (k >= 250) late_dev += std::abs(u[0] - model.b[0]);
  }
  EXPECT_GT(late_dev / 50.0, 0.03);  // sustained oscillation, not settled
}

}  // namespace
}  // namespace eucon::control
