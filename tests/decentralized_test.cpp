// DEUCON: the sharded controller's decentralized configuration —
// one-processor shards swept Jacobi-style against the measured u.
#include <gtest/gtest.h>

#include <algorithm>

#include "control/hierarchical.h"
#include "control/sparse_model.h"
#include "eucon/experiment.h"
#include "eucon/metrics.h"
#include "eucon/workloads.h"

namespace eucon::control {
namespace {

using linalg::Vector;

std::unique_ptr<HierarchicalMpcController> deucon(const PlantModel& model,
                                                  const MpcParams& params,
                                                  const Vector& r0) {
  return HierarchicalMpcController::decentralized(sparsify(model), params, r0);
}

TEST(DecentralizedTest, PartitionsOwnershipCompletely) {
  const PlantModel model = make_plant_model(workloads::medium());
  const auto ctrl = deucon(model, workloads::medium_controller_params(),
                           workloads::medium().initial_rate_vector());
  EXPECT_EQ(ctrl->name(), "DEUCON");
  ASSERT_EQ(ctrl->num_shards(), model.num_processors());
  // Every task owned exactly once.
  std::vector<int> owners(model.num_tasks(), 0);
  for (std::size_t p = 0; p < model.num_processors(); ++p) {
    for (std::size_t j : ctrl->shard_tasks(p)) ++owners[j];
  }
  for (std::size_t j = 0; j < model.num_tasks(); ++j)
    EXPECT_EQ(owners[j], 1) << "task " << j;
}

TEST(DecentralizedTest, NeighborhoodsCoverCoupledProcessors) {
  const PlantModel model = make_plant_model(workloads::medium());
  const auto ctrl = deucon(model, workloads::medium_controller_params(),
                           workloads::medium().initial_rate_vector());
  for (std::size_t p = 0; p < model.num_processors(); ++p) {
    const auto& rows = ctrl->shard_rows(p);
    EXPECT_TRUE(std::is_sorted(rows.begin(), rows.end()));
    // An owner holds the largest entry of each task it owns, so it always
    // observes itself.
    EXPECT_NE(std::find(rows.begin(), rows.end(), p), rows.end());
    // Every processor a locally owned task touches is in the neighborhood.
    for (std::size_t j : ctrl->shard_tasks(p))
      for (std::size_t q = 0; q < model.num_processors(); ++q)
        if (model.f(q, j) > 0.0) {
          EXPECT_NE(std::find(rows.begin(), rows.end(), q), rows.end());
        }
  }
}

TEST(DecentralizedTest, LocalProblemsAreSmallerThanCentralized) {
  const PlantModel model = make_plant_model(workloads::medium());
  const auto ctrl = deucon(model, workloads::medium_controller_params(),
                           workloads::medium().initial_rate_vector());
  EXPECT_GE(ctrl->num_shards(), 2u);
  EXPECT_LT(ctrl->max_shard_problem_size(), model.num_tasks());
}

TEST(DecentralizedTest, EachShardSolvesAgainstTheRawMeasurement) {
  // The Jacobi sweep: every one-processor shard's output equals that of an
  // independent MPC built on the shard's sub-block of F and fed the same
  // measured u — no shard sees another's moves within the period. The
  // sweep's diagnostics fold those controllers' records: iterations
  // summed, fast path when all held, fallback when any fell back, the
  // first non-optimal status, no active rows. A load spike on P1 after
  // period 15 makes one shard fall back while the others do not.
  const PlantModel model = make_plant_model(workloads::medium());
  const MpcParams params = workloads::medium_controller_params();
  const Vector r0 = workloads::medium().initial_rate_vector();
  const auto ctrl = deucon(model, params, r0);

  std::vector<std::unique_ptr<MpcController>> independent;
  for (std::size_t s = 0; s < ctrl->num_shards(); ++s) {
    const auto& rows = ctrl->shard_rows(s);
    const auto& tasks = ctrl->shard_tasks(s);
    PlantModel local;
    local.f = linalg::Matrix(rows.size(), tasks.size());
    local.b = Vector(rows.size());
    local.rate_min = Vector(tasks.size());
    local.rate_max = Vector(tasks.size());
    Vector local_r0(tasks.size());
    for (std::size_t qi = 0; qi < rows.size(); ++qi) {
      local.b[qi] = model.b[rows[qi]];
      for (std::size_t ji = 0; ji < tasks.size(); ++ji)
        local.f(qi, ji) = model.f(rows[qi], tasks[ji]);
    }
    for (std::size_t ji = 0; ji < tasks.size(); ++ji) {
      local.rate_min[ji] = model.rate_min[tasks[ji]];
      local.rate_max[ji] = model.rate_max[tasks[ji]];
      local_r0[ji] = r0[tasks[ji]];
    }
    independent.push_back(
        std::make_unique<MpcController>(local, params, local_r0));
  }

  SparseLinearPlant plant(sparsify(model), Vector(4, 0.8), r0);
  Vector u = plant.utilization();
  int fallback_periods = 0;
  for (int k = 0; k < 30; ++k) {
    const Vector& r = ctrl->update(u);
    Diagnostics fold;
    fold.fast_path = true;
    for (std::size_t s = 0; s < ctrl->num_shards(); ++s) {
      const auto& rows = ctrl->shard_rows(s);
      const auto& tasks = ctrl->shard_tasks(s);
      Vector u_local(rows.size());
      for (std::size_t qi = 0; qi < rows.size(); ++qi) u_local[qi] = u[rows[qi]];
      const Vector& r_local = independent[s]->update(u_local);
      for (std::size_t ji = 0; ji < tasks.size(); ++ji)
        ASSERT_EQ(r[tasks[ji]], r_local[ji])
            << "period " << k << " shard " << s << " task " << tasks[ji];
      const Diagnostics& local = *independent[s]->diagnostics();
      fold.iterations += local.iterations;
      fold.fast_path = fold.fast_path && local.fast_path;
      fold.fallback = fold.fallback || local.fallback;
      if (fold.status == qp::Status::kOptimal) fold.status = local.status;
    }
    const Diagnostics& sweep = *ctrl->diagnostics();
    EXPECT_EQ(sweep.iterations, fold.iterations) << "period " << k;
    EXPECT_EQ(sweep.fast_path, fold.fast_path) << "period " << k;
    EXPECT_EQ(sweep.fallback, fold.fallback) << "period " << k;
    EXPECT_EQ(sweep.status, fold.status) << "period " << k;
    EXPECT_TRUE(sweep.active.empty()) << "period " << k;
    if (fold.fallback) ++fallback_periods;
    u = plant.step(r);
    if (k == 15) {
      u[0] = 1.0;
      plant.set_utilization(u);
    }
  }
  EXPECT_GT(fallback_periods, 0);
  EXPECT_EQ(ctrl->diagnostics()->updates, 30u);
}

TEST(DecentralizedTest, ConvergesOnLinearPlantSimple) {
  const PlantModel model = make_plant_model(workloads::simple());
  const Vector r0 = workloads::simple().initial_rate_vector();
  const auto ctrl = deucon(model, workloads::simple_controller_params(), r0);
  SparseLinearPlant plant(sparsify(model), Vector{1.0, 1.0}, r0);
  Vector u = plant.utilization();
  for (int k = 0; k < 150; ++k) u = plant.step(ctrl->update(u));
  EXPECT_NEAR(u[0], model.b[0], 0.01);
  EXPECT_NEAR(u[1], model.b[1], 0.01);
}

TEST(DecentralizedTest, ConvergesOnLinearPlantMedium) {
  const PlantModel model = make_plant_model(workloads::medium());
  const Vector r0 = workloads::medium().initial_rate_vector();
  const auto ctrl = deucon(model, workloads::medium_controller_params(), r0);
  SparseLinearPlant plant(sparsify(model), Vector(4, 0.7), r0);
  Vector u = plant.utilization();
  for (int k = 0; k < 250; ++k) u = plant.step(ctrl->update(u));
  for (std::size_t p = 0; p < 4; ++p)
    EXPECT_NEAR(u[p], model.b[p], 0.02) << "P" << p + 1;
}

TEST(DecentralizedTest, FullSimulationAcceptableOnMedium) {
  ExperimentConfig cfg;
  cfg.spec = workloads::medium();
  cfg.controller = ControllerKind::kDecentralized;
  cfg.mpc = workloads::medium_controller_params();
  cfg.sim.etf = rts::EtfProfile::constant(0.5);
  cfg.sim.jitter = 0.2;
  cfg.sim.seed = 7;
  cfg.num_periods = 300;
  const ExperimentResult res = run_experiment(cfg);
  for (std::size_t p = 0; p < 4; ++p) {
    const auto a = metrics::acceptability(res, p);
    EXPECT_TRUE(a.acceptable())
        << "P" << p + 1 << " mean " << a.mean << " sd " << a.stddev;
  }
}

TEST(DecentralizedTest, TracksDynamicLoadLikeCentralized) {
  ExperimentConfig cfg;
  cfg.spec = workloads::medium();
  cfg.mpc = workloads::medium_controller_params();
  cfg.sim.etf = rts::EtfProfile::steps(
      {{0.0, 0.5}, {100000.0, 0.9}, {200000.0, 0.33}});
  cfg.sim.jitter = 0.2;
  cfg.sim.seed = 7;
  cfg.num_periods = 300;

  cfg.controller = ControllerKind::kDecentralized;
  const ExperimentResult dec = run_experiment(cfg);
  cfg.controller = ControllerKind::kEucon;
  const ExperimentResult cen = run_experiment(cfg);

  // The decentralized approximation costs a little tracking quality in the
  // high-gain phase (each node ignores its peers' concurrent moves): allow
  // a slightly wider mean band than the centralized criterion, but demand
  // bounded oscillation and closeness to the centralized result.
  for (std::size_t p = 0; p < 4; ++p) {
    const auto a = metrics::acceptability(dec, p, 160, 200, 0.035, 0.05);
    EXPECT_TRUE(a.acceptable())
        << "decentralized P" << p + 1 << " after the load step: mean "
        << a.mean << " sd " << a.stddev;
  }
  const double gap =
      std::abs(metrics::acceptability(dec, 0, 160, 200).mean -
               metrics::acceptability(cen, 0, 160, 200).mean);
  EXPECT_LT(gap, 0.03);
}

TEST(DecentralizedTest, SplitsOutOfRangeFromOwnerlessDiagnostics) {
  // 2 processors, 1 task owned by P0: P1 is a valid shard that owns
  // nothing, 7 is caller misuse — the two must be distinguishable.
  PlantModel model;
  model.f = linalg::Matrix{{2.0}, {1.0}};
  model.b = Vector{0.8, 0.8};
  model.rate_min = Vector{0.001};
  model.rate_max = Vector{0.1};
  const auto ctrl =
      deucon(model, workloads::simple_controller_params(), Vector{0.01});
  try {
    ctrl->shard_tasks(7);
    FAIL() << "out-of-range index must throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("out of range"), std::string::npos)
        << e.what();
  }
  EXPECT_TRUE(ctrl->shard_tasks(1).empty());
  EXPECT_TRUE(ctrl->shard_rows(1).empty());
}

TEST(DecentralizedTest, OwnershipTieBreaksToLowestProcessorIndex) {
  // Task 0 ties across P1 and P2 (P0 holds a smaller entry): the
  // documented rule assigns it to P1, deterministically.
  PlantModel model;
  model.f = linalg::Matrix{{1.0, 0.0}, {5.0, 2.0}, {5.0, 0.0}};
  model.b = Vector{0.8, 0.8, 0.8};
  model.rate_min = Vector{0.001, 0.001};
  model.rate_max = Vector{0.1, 0.1};
  const auto ctrl = deucon(model, workloads::simple_controller_params(),
                           Vector{0.01, 0.01});
  ASSERT_EQ(ctrl->shard_tasks(1).size(), 2u);
  EXPECT_TRUE(ctrl->shard_tasks(2).empty());
}

TEST(DecentralizedTest, AllZeroAllocationColumnNamesTheTask) {
  PlantModel model;
  model.f = linalg::Matrix{{2.0, 0.0}, {1.0, 0.0}};
  model.b = Vector{0.8, 0.8};
  model.rate_min = Vector{0.001, 0.001};
  model.rate_max = Vector{0.1, 0.1};
  try {
    deucon(model, workloads::simple_controller_params(), Vector{0.01, 0.01});
    FAIL() << "all-zero column must be rejected";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("task 1"), std::string::npos)
        << e.what();
  }
}

TEST(DecentralizedTest, RejectsBadSizes) {
  const PlantModel model = make_plant_model(workloads::simple());
  EXPECT_THROW(
      deucon(model, workloads::simple_controller_params(), Vector{0.01}),
      std::invalid_argument);
  const auto ctrl = deucon(model, workloads::simple_controller_params(),
                           workloads::simple().initial_rate_vector());
  EXPECT_THROW(ctrl->update(Vector{0.5}), std::invalid_argument);
  EXPECT_THROW(ctrl->shard_tasks(99), std::invalid_argument);
}

}  // namespace
}  // namespace eucon::control
