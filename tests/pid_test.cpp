#include "control/pid.h"

#include <gtest/gtest.h>

#include "control/sparse_model.h"
#include "eucon/workloads.h"

namespace eucon::control {
namespace {

using linalg::Vector;

TEST(PidTest, ConvergesOnNominalLinearPlant) {
  const PlantModel model = make_plant_model(workloads::simple());
  const Vector r0 = workloads::simple().initial_rate_vector();
  PidController pid(model, PidParams{}, r0);
  SparseLinearPlant plant(sparsify(model), Vector{1.0, 1.0}, r0);
  Vector u = plant.utilization();
  for (int k = 0; k < 300; ++k) u = plant.step(pid.update(u));
  EXPECT_NEAR(u[0], model.b[0], 0.01);
  EXPECT_NEAR(u[1], model.b[1], 0.01);
}

TEST(PidTest, RespectsRateBounds) {
  const PlantModel model = make_plant_model(workloads::simple());
  const Vector r0 = workloads::simple().initial_rate_vector();
  PidController pid(model, PidParams{}, r0);
  for (int k = 0; k < 100; ++k) {
    const Vector r = pid.update(Vector{0.0, 0.0});  // deep underload
    for (std::size_t j = 0; j < r.size(); ++j) {
      EXPECT_LE(r[j], model.rate_max[j] + 1e-12);
      EXPECT_GE(r[j], model.rate_min[j] - 1e-12);
    }
  }
}

TEST(PidTest, LessRobustThanMpcAtHighGain) {
  // The §6.1 claim, quantified on the linear plant: at a gain where EUCON
  // still settles, this (aggressively tuned) PID oscillates or diverges.
  const PlantModel model = make_plant_model(workloads::simple());
  const Vector r0 = workloads::simple().initial_rate_vector();
  PidParams aggressive;
  aggressive.kp = 0.5;
  aggressive.ki = 0.8;
  PidController pid(model, aggressive, r0);
  SparseLinearPlant plant(sparsify(model), Vector{4.0, 4.0}, r0);
  Vector u = plant.utilization();
  double late_error = 0.0;
  for (int k = 0; k < 200; ++k) {
    u = plant.step(pid.update(u));
    if (k >= 150) late_error += std::abs(u[0] - model.b[0]);
  }
  EXPECT_GT(late_error / 50.0, 0.05);
}

TEST(PidTest, RejectsWrongSizes) {
  const PlantModel model = make_plant_model(workloads::simple());
  EXPECT_THROW(PidController(model, PidParams{}, Vector{0.01}),
               std::invalid_argument);
  PidController pid(model, PidParams{},
                    workloads::simple().initial_rate_vector());
  EXPECT_THROW(pid.update(Vector{0.5}), std::invalid_argument);
}

}  // namespace
}  // namespace eucon::control
