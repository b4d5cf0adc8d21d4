#include "control/mpc.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
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

// The controller falls back exactly when the hard instance has no
// solution. With F >= 0, moving every rate to R_min minimizes every
// predicted utilization, so the instance is feasible iff
// u + F (R_min - r) <= B: the oracle below, which the controller itself
// never evaluates (it acts on the solver's verdict). u = B * U(1 - s,
// 1 + s) with s ~ U(0, 0.6); each rate sits at R_min with probability
// 0.5 (so that MEDIUM and LARGE processors can run out of room too), at
// R_max with 0.1, else uniform in the box. Margins within 1e-6 of zero are
// skipped.
TEST(MpcTest, FallsBackExactlyWhenRateFloorOverloads) {
  const rts::SystemSpec specs[] = {workloads::simple(), workloads::medium(),
                                   workloads::large()};
  const MpcParams params[] = {workloads::simple_controller_params(),
                              workloads::medium_controller_params(),
                              workloads::medium_controller_params()};
  for (std::size_t s = 0; s < 3; ++s) {
    const PlantModel model = make_plant_model(specs[s]);
    const std::size_t n = model.num_processors();
    const std::size_t m = model.num_tasks();
    int overloaded = 0;
    int feasible = 0;
    for (int k = 0; k < 300; ++k) {
      Rng rng(7000 + 1000 * s + static_cast<std::uint64_t>(k));
      const double spread = rng.uniform(0.0, 0.6);
      Vector u(n);
      for (std::size_t i = 0; i < n; ++i)
        u[i] = model.b[i] * rng.uniform(1.0 - spread, 1.0 + spread);
      Vector r(m);
      for (std::size_t j = 0; j < m; ++j) {
        const double roll = rng.uniform(0.0, 1.0);
        r[j] = roll < 0.5   ? model.rate_min[j]
               : roll < 0.6 ? model.rate_max[j]
                            : rng.uniform(model.rate_min[j], model.rate_max[j]);
      }
      double margin = 1e300;
      for (std::size_t i = 0; i < n; ++i) {
        double floor = u[i];
        for (std::size_t j = 0; j < m; ++j)
          floor += model.f(i, j) * (model.rate_min[j] - r[j]);
        margin = std::min(margin, model.b[i] - floor);
      }
      if (std::abs(margin) < 1e-6) continue;

      MpcController ctrl(model, params[s], r);
      (void)ctrl.update(u);
      const bool infeasible = margin < 0.0;
      EXPECT_EQ(ctrl.diagnostics()->fallback, infeasible)
          << "shape " << s << " instance " << k << " margin " << margin;
      EXPECT_EQ(ctrl.fallback_count(), infeasible ? 1u : 0u);
      EXPECT_EQ(ctrl.diagnostics()->status, qp::Status::kOptimal);
      (infeasible ? overloaded : feasible) += 1;
    }
    EXPECT_GT(overloaded, 0) << "shape " << s;
    EXPECT_GT(feasible, 0) << "shape " << s;
    std::printf("shape %zu: %d overloaded, %d feasible\n", s, overloaded,
                feasible);
  }
}

// An overload a little beyond the room the rate floor leaves, room_i =
// (F (r - R_min))_i < u_i - B_i, makes the hard instance infeasible, yet
// the reference trajectory asks only for a share of that error per step,
// so the rates-only re-solve can stay inside the box at iteration 0. Such
// a period is still no fast path: its hard solve added rows before it
// failed. Rates are interior, u_i = B_i + room_i * U(1.01, 1.2); a
// soft-only controller, which runs only the rates-only solve, tells which
// instances lie in that band and gives the rates the fallback must apply.
TEST(MpcTest, FallbackPeriodIsNeverAFastPathHit) {
  const rts::SystemSpec specs[] = {workloads::simple(), workloads::medium(),
                                   workloads::large()};
  const MpcParams params[] = {workloads::simple_controller_params(),
                              workloads::medium_controller_params(),
                              workloads::medium_controller_params()};
  for (std::size_t s = 0; s < 3; ++s) {
    const PlantModel model = make_plant_model(specs[s]);
    const std::size_t n = model.num_processors();
    const std::size_t m = model.num_tasks();
    MpcParams soft = params[s];
    soft.constraint_mode = ConstraintMode::kSoftOnly;
    int in_band = 0;
    for (int k = 0; k < 100; ++k) {
      Rng rng(9000 + 1000 * s + static_cast<std::uint64_t>(k));
      Vector r(m);
      for (std::size_t j = 0; j < m; ++j) {
        const double span = model.rate_max[j] - model.rate_min[j];
        r[j] = model.rate_min[j] + span * rng.uniform(0.2, 0.8);
      }
      Vector u(n);
      for (std::size_t i = 0; i < n; ++i) {
        double room = 0.0;
        for (std::size_t j = 0; j < m; ++j)
          room += model.f(i, j) * (r[j] - model.rate_min[j]);
        u[i] = model.b[i] + room * rng.uniform(1.01, 1.2);
      }

      MpcController hard(model, params[s], r);
      MpcController rates_only(model, soft, r);
      const Vector applied = hard.update(u);
      const Vector expected = rates_only.update(u);
      const Diagnostics& diag = *hard.diagnostics();
      ASSERT_TRUE(diag.fallback) << "shape " << s << " k " << k;
      EXPECT_GT(diag.iterations, rates_only.diagnostics()->iterations);
      EXPECT_FALSE(diag.fast_path) << "shape " << s << " k " << k;
      EXPECT_EQ(hard.fast_path_hits(), 0u);
      EXPECT_EQ(hard.qp_iterations_total(),
                static_cast<std::uint64_t>(diag.iterations));
      for (std::size_t j = 0; j < m; ++j) EXPECT_EQ(applied[j], expected[j]);
      if (rates_only.diagnostics()->fast_path) ++in_band;
    }
    EXPECT_GT(in_band, 0) << "shape " << s;
    std::printf("shape %zu: %d of 100 in the band\n", s, in_band);
  }
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
