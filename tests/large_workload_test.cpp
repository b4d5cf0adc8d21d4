// The LARGE workload: structure, diagnostics, and closed-loop control at
// the "larger scale" the paper defers to future work.
#include <gtest/gtest.h>

#include "eucon/eucon.h"

namespace eucon::workloads {
namespace {

TEST(LargeWorkloadTest, Structure) {
  const rts::SystemSpec s = large();
  EXPECT_EQ(s.num_processors, 8);
  EXPECT_EQ(s.num_subtasks(), 56u);
  const auto counts = s.subtasks_per_processor();
  for (int p = 0; p < 8; ++p) EXPECT_EQ(counts[static_cast<std::size_t>(p)], 7);
  int e2e = 0;
  for (const auto& t : s.tasks)
    if (t.subtasks.size() > 1) ++e2e;
  EXPECT_GE(e2e, 16);
}

TEST(LargeWorkloadTest, DiagnosticsClean) {
  const auto d = control::diagnose_plant(control::make_plant_model(large()));
  EXPECT_TRUE(d.full_row_rank);
  EXPECT_TRUE(d.structurally_feasible());
}

TEST(LargeWorkloadTest, SetPointsFollowLiuLayland) {
  const auto b = large().liu_layland_set_points();
  for (std::size_t p = 0; p < 8; ++p)
    EXPECT_NEAR(b[p], 7.0 * (std::pow(2.0, 1.0 / 7.0) - 1.0), 1e-12);
}

TEST(LargeWorkloadTest, CentralizedEuconControlsIt) {
  ExperimentConfig cfg;
  cfg.spec = large();
  cfg.mpc = workloads::medium_controller_params();
  cfg.sim.etf = rts::EtfProfile::constant(0.6);
  cfg.sim.jitter = 0.2;
  cfg.sim.seed = 3;
  cfg.num_periods = 200;
  const ExperimentResult res = run_experiment(cfg);
  for (std::size_t p = 0; p < 8; ++p) {
    const auto a = metrics::acceptability(res, p, 100, 0, 0.03, 0.05);
    EXPECT_TRUE(a.acceptable())
        << "P" << p + 1 << " mean " << a.mean << " sd " << a.stddev;
  }
}

TEST(LargeWorkloadTest, DecentralizedHandlesItWithSmallLocalProblems) {
  const auto ctrl = control::HierarchicalMpcController::decentralized(
      control::make_sparse_plant_model(large()),
      workloads::medium_controller_params(), large().initial_rate_vector());
  EXPECT_EQ(ctrl->num_shards(), 8u);
  for (std::size_t p = 0; p < 8; ++p)
    EXPECT_FALSE(ctrl->shard_tasks(p).empty()) << "P" << p + 1;
  EXPECT_LE(ctrl->max_shard_problem_size(), 6u);  // vs 28 tasks centralized

  ExperimentConfig cfg;
  cfg.spec = large();
  cfg.controller = ControllerKind::kDecentralized;
  cfg.mpc = workloads::medium_controller_params();
  cfg.sim.etf = rts::EtfProfile::constant(0.6);
  cfg.sim.jitter = 0.2;
  cfg.sim.seed = 3;
  cfg.num_periods = 200;
  const ExperimentResult res = run_experiment(cfg);
  for (std::size_t p = 0; p < 8; ++p) {
    const auto a = metrics::acceptability(res, p, 120, 0, 0.05, 0.06);
    EXPECT_TRUE(a.acceptable())
        << "P" << p + 1 << " mean " << a.mean << " sd " << a.stddev;
  }
}

}  // namespace
}  // namespace eucon::workloads
