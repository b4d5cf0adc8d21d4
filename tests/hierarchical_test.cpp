// Hierarchical (sharded) controller: shard construction invariants, the
// coordinator's boundary reconciliation, and parity with the central MPC —
// a single all-covering shard must reproduce it exactly, and sharded runs
// must settle to the same steady state on every small-n scenario.
#include "control/hierarchical.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "control/sparse_model.h"
#include "control/topology.h"
#include "eucon/experiment.h"
#include "eucon/workloads.h"

namespace eucon::control {
namespace {

using linalg::Vector;

MpcParams cluster_params() {
  MpcParams p;
  p.prediction_horizon = 2;
  p.control_horizon = 1;
  p.tref_over_ts = 4.0;
  return p;
}

workloads::ChainClusterParams chain_params(int n) {
  workloads::ChainClusterParams params;
  params.num_processors = n;
  params.tasks_per_processor = 2;
  params.chain_length = 3;
  return params;
}

TEST(HierarchicalTest, ShardsPartitionTasksAndCoverRows) {
  const rts::SystemSpec spec = workloads::chain_cluster(chain_params(64), 3);
  const SparsePlantModel model = make_sparse_plant_model(spec);
  HierarchicalParams hier;
  hier.shard_size = 16;
  HierarchicalMpcController ctrl(model, cluster_params(), hier,
                                 spec.initial_rate_vector());
  ASSERT_EQ(ctrl.num_shards(), 4u);

  std::vector<int> owned_count(model.num_tasks(), 0);
  for (std::size_t s = 0; s < ctrl.num_shards(); ++s)
    for (std::size_t j : ctrl.shard_tasks(s)) ++owned_count[j];
  for (std::size_t j = 0; j < model.num_tasks(); ++j)
    EXPECT_EQ(owned_count[j], 1) << "task " << j;

  // Shard tasks follow the shared ownership rule, and every row a shard's
  // tasks touch is observed by that shard.
  const std::vector<std::size_t> owner = compute_ownership(model.f);
  for (std::size_t s = 0; s < ctrl.num_shards(); ++s) {
    const auto& rows = ctrl.shard_rows(s);
    for (std::size_t j : ctrl.shard_tasks(s)) {
      EXPECT_EQ(owner[j] / hier.shard_size, s);
      for (std::size_t q = 0; q < model.num_processors(); ++q)
        if (model.f.at(q, j) > 0.0) {
          EXPECT_TRUE(std::find(rows.begin(), rows.end(), q) != rows.end())
              << "shard " << s << " misses row " << q;
        }
    }
  }
}

TEST(HierarchicalTest, BoundarySharesSumToOnePerRow) {
  // A shard's share of row q is the part of Σ_j f(q,j) its own tasks
  // carry. Chains crossing a shard boundary split a row between several
  // shards — the rows the Gauss–Seidel sweep reconciles. Every shard that
  // observes a row carries part of it, and each row's shares sum to one.
  const rts::SystemSpec spec = workloads::chain_cluster(chain_params(64), 5);
  const SparsePlantModel model = make_sparse_plant_model(spec);
  HierarchicalParams hier;
  hier.shard_size = 8;
  HierarchicalMpcController ctrl(model, cluster_params(), hier,
                                 spec.initial_rate_vector());
  Vector total(model.num_processors(), 0.0);
  bool any_boundary = false;
  for (std::size_t s = 0; s < ctrl.num_shards(); ++s) {
    for (std::size_t q : ctrl.shard_rows(s)) {
      double row_total = 0.0;
      for (std::size_t j = 0; j < model.num_tasks(); ++j)
        row_total += model.f.at(q, j);
      double mine = 0.0;
      for (std::size_t j : ctrl.shard_tasks(s)) mine += model.f.at(q, j);
      const double share = mine / row_total;
      EXPECT_GT(share, 0.0) << "shard " << s << " row " << q;
      EXPECT_LE(share, 1.0 + 1e-12) << "shard " << s << " row " << q;
      if (share < 1.0 - 1e-12) any_boundary = true;
      total[q] += share;
    }
  }
  EXPECT_TRUE(any_boundary) << "chain workload must produce boundary rows";
  for (std::size_t q = 0; q < total.size(); ++q)
    EXPECT_NEAR(total[q], 1.0, 1e-12) << "row " << q;
}

TEST(HierarchicalTest, SingleShardReproducesCentralMpcExactly) {
  // One shard covering every processor: the local model is the full model
  // (chain workloads touch every processor, so rows and columns come out
  // in identity order), and the controller must follow the central MPC
  // bit for bit.
  const rts::SystemSpec spec = workloads::chain_cluster(chain_params(16), 7);
  const SparsePlantModel model = make_sparse_plant_model(spec);
  const Vector r0 = spec.initial_rate_vector();
  HierarchicalParams hier;
  hier.shard_size = 16;
  HierarchicalMpcController sharded(model, cluster_params(), hier, r0);
  ASSERT_EQ(sharded.num_shards(), 1u);
  MpcController central(model.to_dense(), cluster_params(), r0);

  SparseLinearPlant plant(model, Vector(model.num_processors(), 1.0), r0);
  Vector u = plant.utilization();
  for (int k = 0; k < 40; ++k) {
    const Vector& r_sharded = sharded.update(u);
    const Vector& r_central = central.update(u);
    for (std::size_t j = 0; j < r_sharded.size(); ++j)
      ASSERT_EQ(r_sharded[j], r_central[j]) << "period " << k << " task " << j;
    u = plant.step(r_sharded);
  }
}

// Through the experiment harness, one all-covering shard reports what the
// central MPC reports: every period's qp block except the active rows, the
// run summary and the mpc.* counters. MEDIUM with an etf step from 0.5 to
// 3.0 at k = 100 takes both through fast paths, active rows and fallbacks.
TEST(HierarchicalTest, SingleShardReportsTheCentralDiagnostics) {
  const ControllerKind kinds[] = {ControllerKind::kEucon,
                                  ControllerKind::kHierarchical};
  obs::MemorySink sinks[2];
  obs::Registry registries[2];
  ExperimentResult results[2];
  for (int i = 0; i < 2; ++i) {
    ExperimentConfig cfg;
    cfg.spec = workloads::medium();
    cfg.mpc = workloads::medium_controller_params();
    cfg.controller = kinds[i];
    cfg.sim.etf = rts::EtfProfile::steps({{0.0, 0.5}, {100000.0, 3.0}});
    cfg.sim.jitter = 0.1;
    cfg.sim.seed = 1;
    cfg.num_periods = 200;
    cfg.trace_sink = &sinks[i];
    cfg.metrics = &registries[i];
    results[i] = run_experiment(cfg);
  }

  const std::vector<obs::PeriodRecord>& central = sinks[0].records();
  const std::vector<obs::PeriodRecord>& sharded = sinks[1].records();
  ASSERT_EQ(central.size(), 200u);
  ASSERT_EQ(sharded.size(), 200u);
  for (std::size_t k = 0; k < central.size(); ++k) {
    ASSERT_EQ(sharded[k].rates, central[k].rates) << "k=" << k + 1;
    EXPECT_EQ(sharded[k].qp_iterations, central[k].qp_iterations)
        << "k=" << k + 1;
    EXPECT_EQ(sharded[k].qp_fast_path, central[k].qp_fast_path)
        << "k=" << k + 1;
    EXPECT_EQ(sharded[k].qp_fallback, central[k].qp_fallback) << "k=" << k + 1;
    EXPECT_EQ(sharded[k].qp_status, central[k].qp_status) << "k=" << k + 1;
    EXPECT_TRUE(sharded[k].qp_active_set.empty()) << "k=" << k + 1;
  }

  const obs::RunSummary& want = sinks[0].summary();
  EXPECT_GT(want.controller_fallbacks, 0u);
  EXPECT_GT(want.qp_fast_path_hits, 0u);
  EXPECT_EQ(want.controller_updates, 200u);
  for (int i = 0; i < 2; ++i) {
    const obs::RunSummary& got = sinks[i].summary();
    EXPECT_EQ(obs::to_jsonl(got), obs::to_jsonl(want))
        << controller_kind_name(kinds[i]);
    EXPECT_EQ(got.controller_updates, want.controller_updates);
    EXPECT_EQ(obs::to_jsonl(results[i].summary), obs::to_jsonl(got));
    EXPECT_EQ(registries[i].counter("mpc.updates"), want.controller_updates);
    EXPECT_EQ(registries[i].counter("mpc.fallbacks"),
              want.controller_fallbacks);
    EXPECT_EQ(registries[i].counter("mpc.qp_iterations"),
              want.qp_iterations_total);
    EXPECT_EQ(registries[i].counter("mpc.fast_path_hits"),
              want.qp_fast_path_hits);
  }
}

TEST(HierarchicalTest, ShardedConvergesToCentralFixpointOnSmallClusters) {
  // Shard-boundary reconciliation: on every n <= 128 chain scenario the
  // sharded controller must settle to the same steady-state utilization
  // the central MPC reaches — u = b on every processor (the plant's gains
  // make the set points reachable), despite every local MPC seeing only
  // its slice of the plant through the staggered Gauss–Seidel sweeps.
  for (const int n : {16, 32, 128}) {
    const rts::SystemSpec spec = workloads::chain_cluster(chain_params(n), 21);
    const SparsePlantModel model = make_sparse_plant_model(spec);
    const Vector r0 = spec.initial_rate_vector();
    const Vector gains(model.num_processors(), 1.0);

    HierarchicalParams hier;
    hier.shard_size = 8;  // forces many shards and real boundary traffic
    HierarchicalMpcController sharded(model, cluster_params(), hier, r0);
    SparseLinearPlant plant_s(model, gains, r0);
    Vector u_s = plant_s.utilization();
    for (int k = 0; k < 200; ++k) u_s = plant_s.step(sharded.update(u_s));

    MpcController central(model.to_dense(), cluster_params(), r0);
    SparseLinearPlant plant_c(model, gains, r0);
    Vector u_c = plant_c.utilization();
    for (int k = 0; k < 200; ++k) u_c = plant_c.step(central.update(u_c));

    for (std::size_t p = 0; p < model.num_processors(); ++p) {
      EXPECT_NEAR(u_c[p], model.b[p], 0.005) << "central n=" << n << " P" << p;
      EXPECT_NEAR(u_s[p], model.b[p], 0.005) << "sharded n=" << n << " P" << p;
      EXPECT_NEAR(u_s[p], u_c[p], 0.005) << "parity n=" << n << " P" << p;
    }
  }
}

TEST(HierarchicalTest, SharedWorkspaceSizesToLargestShard) {
  const rts::SystemSpec spec = workloads::chain_cluster(chain_params(64), 13);
  const SparsePlantModel model = make_sparse_plant_model(spec);
  HierarchicalParams hier;
  hier.shard_size = 16;
  HierarchicalMpcController ctrl(model, cluster_params(), hier,
                                 spec.initial_rate_vector());
  const auto [vars, cons] = ctrl.workspace_capacity();
  // Largest shard: |owned| * M decision variables — far below the m * M a
  // per-cluster workspace would hold.
  EXPECT_EQ(vars, ctrl.max_shard_problem_size());
  EXPECT_LT(vars, model.num_tasks());
  EXPECT_GT(cons, 0u);
}

TEST(HierarchicalTest, RunsUnderTheExperimentHarness) {
  ExperimentConfig cfg;
  cfg.spec = workloads::medium();
  cfg.controller = ControllerKind::kHierarchical;
  cfg.mpc = workloads::medium_controller_params();
  cfg.hier.shard_size = 2;
  cfg.sim.etf = rts::EtfProfile::constant(0.5);
  cfg.sim.jitter = 0.2;
  cfg.sim.seed = 7;
  cfg.num_periods = 200;
  const ExperimentResult res = run_experiment(cfg);
  ASSERT_EQ(res.trace.size(), 200u);
  const linalg::Vector b = make_plant_model(cfg.spec).b;
  for (std::size_t p = 0; p < 4; ++p) {
    double mean = 0.0;
    for (int k = 150; k < 200; ++k) mean += res.trace[static_cast<std::size_t>(k)].u[p];
    mean /= 50.0;
    EXPECT_NEAR(mean, b[p], 0.05) << "P" << p;
  }
}

TEST(HierarchicalTest, SerialAndPooledBatchesAreByteIdentical) {
  // The sharded controller must keep run_batch's determinism contract:
  // pooled execution produces the same traces as serial, bit for bit.
  std::vector<ExperimentSpec> specs;
  for (int i = 0; i < 4; ++i) {
    ExperimentSpec s;
    s.name = "hier-" + std::to_string(i);
    s.config.spec = workloads::medium();
    s.config.controller = ControllerKind::kHierarchical;
    s.config.mpc = workloads::medium_controller_params();
    s.config.hier.shard_size = 1 + static_cast<std::size_t>(i);
    s.config.sim.etf = rts::EtfProfile::constant(0.4 + 0.1 * i);
    s.config.sim.seed = 100 + static_cast<std::uint64_t>(i);
    s.config.num_periods = 60;
    specs.push_back(std::move(s));
  }
  BatchOptions serial;
  serial.serial = true;
  BatchOptions pooled;
  pooled.num_workers = 4;
  const auto a = run_batch(specs, serial);
  const auto b = run_batch(specs, pooled);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].trace.size(), b[i].trace.size());
    for (std::size_t k = 0; k < a[i].trace.size(); ++k) {
      EXPECT_EQ(a[i].trace[k].u, b[i].trace[k].u);
      EXPECT_EQ(a[i].trace[k].rates, b[i].trace[k].rates);
    }
  }
}

TEST(HierarchicalTest, RejectsBadConfig) {
  const SparsePlantModel model = make_sparse_plant_model(workloads::simple());
  const Vector r0 = workloads::simple().initial_rate_vector();
  HierarchicalParams bad;
  bad.shard_size = 0;
  EXPECT_THROW(HierarchicalMpcController(model, cluster_params(), bad, r0),
               std::invalid_argument);
  HierarchicalParams ok;
  HierarchicalMpcController ctrl(model, cluster_params(), ok, r0);
  EXPECT_THROW(ctrl.update(Vector{0.5}), std::invalid_argument);
  EXPECT_THROW(ctrl.shard_tasks(99), std::invalid_argument);
}

}  // namespace
}  // namespace eucon::control
