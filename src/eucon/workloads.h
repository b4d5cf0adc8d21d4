// The paper's workloads plus a random task-set generator.
#pragma once

#include <cstdint>

#include "control/mpc.h"
#include "rts/spec.h"

namespace eucon::workloads {

// SIMPLE (paper Table 1): 3 tasks, 4 subtasks, 2 processors. T2 spans both
// processors; B1 = B2 = 2(2^{1/2}-1) ≈ 0.828.
rts::SystemSpec simple();

// SIMPLE with widened maximum rates (1/R_max = 10 instead of c_ij).
//
// With Table 1 as printed, the set point is infeasible for etf < 0.414
// (even at maximal rates u1 = 2·etf < 0.828), although §7.2 reports
// set-point tracking from etf = 0.2. This variant reproduces the paper's
// claimed range; see DESIGN.md / EXPERIMENTS.md.
rts::SystemSpec simple_relaxed();

// MEDIUM (paper §7.1): 12 tasks (8 end-to-end + 4 local), 25 subtasks, 4
// processors, subtask counts {7,6,6,6} so the Liu–Layland bounds are
// {0.729, 0.735, 0.735, 0.735} — matching the 0.729 set point the paper
// quotes for P1. The paper never publishes the parameter table; this is a
// concrete instance consistent with every published constraint (rate
// ranges wide enough that etf ∈ [0.1, 6] stays feasible).
rts::SystemSpec medium();

// LARGE (beyond the paper): 8 processors, 28 tasks (20 end-to-end + 8
// local), 56 subtasks — the "larger scale" regime the paper defers to
// future work; used by the scaling studies of centralized vs
// decentralized control. Deterministically generated, ring-structured
// chains, rate ranges wide enough for etf ∈ [0.2, 4].
rts::SystemSpec large();

// Controller parameters from Table 2.
control::MpcParams simple_controller_params();  // P=2, M=1, Tref/Ts=4
control::MpcParams medium_controller_params();  // P=4, M=2, Tref/Ts=4

struct RandomWorkloadParams {
  int num_processors = 4;
  int num_tasks = 8;
  int min_chain = 1;
  int max_chain = 4;
  double min_exec = 10.0;
  double max_exec = 50.0;
  // Initial periods drawn uniformly in [min_period, max_period]; rate
  // bounds span [initial/8, initial*8] clipped to sane values.
  double min_period = 100.0;
  double max_period = 800.0;
};

// Deterministic pseudo-random task set (for property tests and the solver
// scaling bench).
rts::SystemSpec random_workload(const RandomWorkloadParams& params,
                                std::uint64_t seed);

struct ChainClusterParams {
  int num_processors = 1024;
  // m = num_processors * tasks_per_processor tasks; task t starts on
  // processor t mod n, so ownership spreads evenly.
  int tasks_per_processor = 2;
  // Subtasks per task, placed on consecutive processors (p0, p0+1, …
  // mod n): the chain topology keeps coupling local, so contiguous
  // processor shards see few boundary tasks.
  int chain_length = 3;
  double min_exec = 10.0;
  double max_exec = 50.0;
  // Subtask k's execution time is scaled by decay^k: 1.0 (default) draws
  // every subtask from [min_exec, max_exec]; values < 1 make the home
  // processor's subtask dominate its successors, which keeps F
  // column-diagonally dominant (well-conditioned, so u = b pins the rates)
  // and the cross-shard coupling weak enough for decentralized/hierarchical
  // controllers to contract fast. Must be in (0, 1].
  double subtask_decay = 1.0;
  // Initial periods drawn uniformly in [min_period, max_period]; rate
  // bounds span [initial/8, initial*8] as in random_workload.
  double min_period = 100.0;
  double max_period = 800.0;
};

// Cluster-scale chain workload for the sparse/hierarchical control plane:
// deterministic given the seed, F has chain_length nonzeros per column
// (density chain_length/n), and every processor hosts exactly
// tasks_per_processor · chain_length subtasks. Scales to 10k processors;
// pair with make_sparse_plant_model — the dense F does not fit at that n.
rts::SystemSpec chain_cluster(const ChainClusterParams& params,
                              std::uint64_t seed);

}  // namespace eucon::workloads
