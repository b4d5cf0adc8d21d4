// Targeted characterization of the eq.-7 penalty-form ambiguity (see
// DESIGN.md / EXPERIMENTS.md): the literal difference form leaves a
// marginally stable mode in null(F) that the default form does not have.
#include <gtest/gtest.h>

#include <cmath>

#include "control/sparse_model.h"
#include "control/mpc.h"
#include "control/stability.h"
#include "eucon/workloads.h"
#include "linalg/eig.h"

namespace eucon::control {
namespace {

using linalg::Vector;

MpcParams params_with(PenaltyForm form) {
  MpcParams p = workloads::simple_controller_params();
  p.penalty_form = form;
  return p;
}

TEST(PenaltyFormTest, LiteralFormHasUnitEigenvalue) {
  const PlantModel model = make_plant_model(workloads::simple());
  StabilityAnalyzer literal(model, params_with(PenaltyForm::kDeltaDeltaRate));
  // F is 2x3: null(F) is one-dimensional -> exactly one structural unit
  // eigenvalue in the closed loop at any gain.
  const auto evs =
      linalg::eigenvalues(literal.closed_loop_matrix(Vector{1.0, 1.0}));
  int unit_modes = 0;
  for (const auto& ev : evs)
    if (std::abs(ev - std::complex<double>(1.0, 0.0)) < 1e-8) ++unit_modes;
  EXPECT_EQ(unit_modes, 1);
}

TEST(PenaltyFormTest, DefaultFormStrictlyStableAtNominalGain) {
  const PlantModel model = make_plant_model(workloads::simple());
  StabilityAnalyzer def(model, params_with(PenaltyForm::kDeltaRate));
  EXPECT_LT(def.spectral_radius_uniform(1.0), 0.95);
}

TEST(PenaltyFormTest, BothFormsShareTheCriticalGainOfTheNonUnitModes) {
  const PlantModel model = make_plant_model(workloads::simple());
  StabilityAnalyzer def(model, params_with(PenaltyForm::kDeltaRate));
  // For the literal form, exclude the structural unit mode and find where
  // the remaining modes cross 1.
  StabilityAnalyzer literal(model, params_with(PenaltyForm::kDeltaDeltaRate));
  auto second_radius = [&](double g) {
    double second = 0.0;
    for (const auto& ev :
         linalg::eigenvalues(literal.closed_loop_matrix(Vector{g, g}))) {
      const double m = std::abs(ev);
      if (std::abs(m - 1.0) < 1e-7 && std::abs(ev.imag()) < 1e-7) continue;
      second = std::max(second, m);
    }
    return second;
  };
  const double crit_default = def.critical_uniform_gain();
  // Bisection on the literal form's non-unit modes.
  double lo = 1.0, hi = 10.0;
  while (hi - lo > 1e-3) {
    const double mid = 0.5 * (lo + hi);
    (second_radius(mid) < 1.0 ? lo : hi) = mid;
  }
  EXPECT_NEAR(crit_default, 0.5 * (lo + hi), 0.05);
}

TEST(PenaltyFormTest, MarginalModeIsUnreachableInClosedLoop) {
  // The literal form's unit eigenvalue lives on [0; v] with F v = 0. The
  // optimizer only reproduces a null-space component that Δr(k-1) already
  // has — and utilization disturbances can never create one (the tracking
  // term is blind to null(F), and the penalty prefers zero). So in closed
  // loop the marginal mode is unreachable: rates settle for BOTH forms.
  // This is why the paper's simulations (and ours, bench_ablation A) work
  // fine despite the eq.-7 ambiguity.
  PlantModel model = make_plant_model(workloads::simple());
  for (std::size_t j = 0; j < model.num_tasks(); ++j) {
    model.rate_min[j] = 1e-9;
    model.rate_max[j] = 10.0;
  }
  const Vector r0 = workloads::simple().initial_rate_vector();

  auto run = [&](PenaltyForm form) {
    MpcParams p = params_with(form);
    p.constraint_mode = ConstraintMode::kSoftOnly;
    MpcController ctrl(model, p, r0);
    SparseLinearPlant plant(sparsify(model), Vector{1.0, 1.0}, r0);
    Vector u = plant.utilization();
    Vector prev_rates = r0, rates = r0;
    double late_rate_motion = 0.0;
    for (int k = 0; k < 200; ++k) {
      rates = ctrl.update(u);
      u = plant.step(rates);
      if (k >= 150) late_rate_motion += (rates - prev_rates).norm_inf();
      prev_rates = rates;
    }
    return late_rate_motion;
  };

  const double drift_literal = run(PenaltyForm::kDeltaDeltaRate);
  const double drift_default = run(PenaltyForm::kDeltaRate);
  EXPECT_LT(drift_default, 1e-6) << "default form damps rate motion";
  EXPECT_LT(drift_literal, 1e-6)
      << "the marginal mode stays unexcited from utilization disturbances";
}

}  // namespace
}  // namespace eucon::control
