// The §2 strawman controller: quantifying the paper's central claim that
// single-processor feedback control cannot handle end-to-end coupling.
#include "control/uncoordinated.h"

#include <gtest/gtest.h>

#include "control/sparse_model.h"
#include "eucon/eucon.h"

namespace eucon::control {
namespace {

using linalg::Vector;

// A workload engineered so that P2's load is dominated by T2's *remote*
// subtask: the only locally rooted task (T3) is too small to compensate.
rts::SystemSpec strongly_coupled() {
  rts::SystemSpec s;
  s.num_processors = 2;
  auto task = [](std::string name, std::vector<rts::SubtaskSpec> subs,
                 double init_p, double min_p, double max_p) {
    rts::TaskSpec t;
    t.name = std::move(name);
    t.subtasks = std::move(subs);
    t.rate_min = 1.0 / max_p;
    t.rate_max = 1.0 / min_p;
    t.initial_rate = 1.0 / init_p;
    return t;
  };
  s.tasks.push_back(task("T1", {{0, 40.0}}, 150.0, 45.0, 1200.0));
  // Rooted on P1 (larger local share there is *not* true here: its P2 leg
  // is bigger — which makes the blindness worse for the P2 controller).
  s.tasks.push_back(task("T2", {{0, 20.0}, {1, 50.0}}, 220.0, 55.0, 1600.0));
  // The only task rooted on P2, with a tight rate range: little authority.
  s.tasks.push_back(task("T3", {{1, 5.0}}, 200.0, 120.0, 400.0));
  s.validate();
  return s;
}

TEST(UncoordinatedTest, RootsFollowLargestShare) {
  const PlantModel model = make_plant_model(strongly_coupled());
  UncoordinatedFcsController ctrl(model, UncoordinatedParams{},
                                  strongly_coupled().initial_rate_vector());
  EXPECT_EQ(ctrl.roots()[0], 0u);  // T1 on P1
  EXPECT_EQ(ctrl.roots()[1], 1u);  // T2's larger share is on P2
  EXPECT_EQ(ctrl.roots()[2], 1u);  // T3 on P2
}

TEST(UncoordinatedTest, WorksWhenTasksAreActuallyIndependent) {
  // All-local tasks: the independence assumption holds, the controller
  // regulates both processors (this is the regime [17] was built for).
  rts::SystemSpec s = strongly_coupled();
  s.tasks[1].subtasks = {{0, 20.0}};  // T2 now local to P1
  s.tasks[2].rate_max = 1.0 / 6.0;    // give T3 real authority on P2
  // Explicit, reachable set points for both processors.
  const PlantModel model = make_plant_model(s, Vector{0.75, 0.6});
  UncoordinatedFcsController ctrl(model, UncoordinatedParams{},
                                  s.initial_rate_vector());
  SparseLinearPlant plant(sparsify(model), Vector{1.0, 1.0},
                          s.initial_rate_vector());
  Vector u = plant.utilization();
  for (int k = 0; k < 300; ++k) u = plant.step(ctrl.update(u));
  EXPECT_NEAR(u[0], 0.75, 0.02);
  EXPECT_NEAR(u[1], 0.6, 0.02);
}

TEST(UncoordinatedTest, FailsUnderEndToEndCoupling) {
  // The sharp failure case of the independence assumption: P2 hosts ONLY
  // T2's downstream subtask — no task roots there, so the per-processor
  // architecture has no actuator for P2 at all. u2 lands wherever P1's
  // controller happens to drive T2. EUCON's MIMO optimization chooses
  // (r1, r2) to satisfy both processors simultaneously.
  rts::SystemSpec s;
  s.num_processors = 2;
  rts::TaskSpec t1;
  t1.name = "T1";
  t1.subtasks = {{0, 40.0}};
  t1.rate_min = 1.0 / 1200.0;
  t1.rate_max = 1.0 / 45.0;
  t1.initial_rate = 1.0 / 150.0;
  rts::TaskSpec t2;
  t2.name = "T2";
  t2.subtasks = {{0, 50.0}, {1, 20.0}};  // roots on P1 (larger share)
  t2.rate_min = 1.0 / 1600.0;
  t2.rate_max = 1.0 / 70.0;
  t2.initial_rate = 1.0 / 220.0;
  s.tasks = {t1, t2};
  s.validate();

  ExperimentConfig cfg;
  cfg.spec = s;
  cfg.set_points = linalg::Vector{0.8, 0.25};
  cfg.mpc = workloads::medium_controller_params();
  cfg.sim.etf = rts::EtfProfile::constant(1.0);
  cfg.sim.jitter = 0.1;
  cfg.sim.seed = 17;
  cfg.num_periods = 300;

  cfg.controller = ControllerKind::kEucon;
  const ExperimentResult eucon = run_experiment(cfg);
  cfg.controller = ControllerKind::kUncoordinated;
  const ExperimentResult fcs = run_experiment(cfg);

  const double eucon_worst =
      std::max(std::abs(metrics::acceptability(eucon, 0).mean -
                        eucon.set_points[0]),
               std::abs(metrics::acceptability(eucon, 1).mean -
                        eucon.set_points[1]));
  const double fcs_worst =
      std::max(std::abs(metrics::acceptability(fcs, 0).mean -
                        fcs.set_points[0]),
               std::abs(metrics::acceptability(fcs, 1).mean -
                        fcs.set_points[1]));
  EXPECT_LE(eucon_worst, 0.02) << "EUCON holds both set points";
  EXPECT_GT(fcs_worst, 2.0 * eucon_worst)
      << "independent per-processor control misses what EUCON achieves";
}

TEST(UncoordinatedTest, RespectsRateBounds) {
  const PlantModel model = make_plant_model(strongly_coupled());
  UncoordinatedFcsController ctrl(model, UncoordinatedParams{},
                                  strongly_coupled().initial_rate_vector());
  for (int k = 0; k < 60; ++k) {
    const Vector r = ctrl.update(Vector{0.0, 0.0});
    for (std::size_t j = 0; j < r.size(); ++j) {
      EXPECT_GE(r[j], model.rate_min[j] - 1e-12);
      EXPECT_LE(r[j], model.rate_max[j] + 1e-12);
    }
  }
}

TEST(UncoordinatedTest, RejectsBadSizes) {
  const PlantModel model = make_plant_model(strongly_coupled());
  EXPECT_THROW(UncoordinatedFcsController(model, UncoordinatedParams{},
                                          Vector{0.01}),
               std::invalid_argument);
  UncoordinatedFcsController ctrl(model, UncoordinatedParams{},
                                  strongly_coupled().initial_rate_vector());
  EXPECT_THROW(ctrl.update(Vector{0.5}), std::invalid_argument);
}

}  // namespace
}  // namespace eucon::control
