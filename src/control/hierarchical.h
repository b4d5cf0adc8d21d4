// Sharded end-to-end utilization control: one local MPC per shard of
// processors, under a lightweight coordinator.
//
// The paper's conclusion names a "decentralized control architecture to
// handle large-scale systems" as future work; its published follow-on is
// DEUCON (Wang, Lu, Koutsoukos). Both DEUCON and the cluster-scale HIER
// are configurations of this one class — they differ only in the shard
// size and in how a period's shards share the measurement (the SWEEP):
//
//   * tasks are OWNED by exactly one processor (the shared rule of
//     control/topology.h: largest allocation entry, ties to the lowest
//     processor index); a task belongs to the shard containing its owning
//     processor, so shards partition the actuators and no two locals
//     command the same rate;
//   * a shard's local model is the dense sub-block of the sparse F over
//     its ROWS (every processor its owned tasks touch — shard members and
//     boundary processors alike, ascending) and its COLUMNS (owned tasks,
//     ascending). The sub-block is read straight off the CSR structure;
//     the global dense F is never materialized;
//   * HIER (Sweep::kGaussSeidel, contiguous shards) reconciles boundary
//     processors that several shards observe with one Gauss–Seidel sweep
//     per period. Shards update in index order against a PREDICTED
//     utilization ũ that starts at the measurement and absorbs each
//     earlier shard's rate moves through the nominal plant model
//     (Δũ = F Δr, read off the CSR columns): shard s solves against ũ
//     over its rows, then ũ is advanced by the Δr it commanded before the
//     next shard solves. Every shard therefore works on the RESIDUAL
//     error its predecessors left — no double-actuation on boundary rows,
//     and a correction can propagate across every shard boundary within a
//     single period instead of one hop per period. u = b remains a
//     fixpoint (zero error commands zero moves, which leave the
//     prediction untouched), the same steady state the central MPC
//     settles to. A single all-covering shard sees the raw measurement
//     and reduces the controller to the central MPC exactly;
//   * DEUCON (Sweep::kJacobi, one-processor shards — decentralized())
//     skips the prediction: every shard solves against the same measured
//     u, as peer nodes sampling one epoch would, and treats the rates
//     other shards own as constant over its horizon. Their moves reach it
//     through the next measurement (the feedback lanes of Figure 1, now
//     peer-to-peer). Each node solves an O(|owned| · M) problem instead
//     of O(m · M), and only neighbor utilizations travel on the wire;
//   * sweeps alternate between two STAGGERED partitions (the base one and
//     a copy with boundaries shifted by half a shard, odd periods using
//     the shifted one). A fixed partition can wedge against rate bounds:
//     a compensation chain that needs task α (shard A) and task β
//     (shard B) to move jointly stalls when each shard's half of the move
//     is individually unprofitable. Staggering makes every locally
//     coupled pair interior to one of the two partitions, so the sweep
//     escapes those blocked equilibria and lands on the central
//     fixpoint. Partitions share the actuators; each one's locals are
//     resynchronized (MpcController::sync_rates, allocation-free) with
//     the globally applied rates before they solve. One-processor shards
//     have no staggered copy;
//   * every local MPC solves its QP through ONE shared workspace sized to
//     the largest shard (growth-only), so active-set scratch memory scales
//     with the shard size, not with n; what a local carries from one of its
//     solves to the next (its solver's factor) is its own.
//
// The per-period update is allocation-free after construction, under
// either sweep (decentralized_alloc_test counts operator new);
// bench_scaling reports the period cost against n up to 10k processors.
#pragma once

#include <memory>
#include <vector>

#include "control/controller.h"
#include "control/mpc.h"
#include "control/sparse_model.h"
#include "qp/active_set.h"

namespace eucon::control {

struct HierarchicalParams {
  // Processors per shard (the last shard takes the remainder). One shard
  // spanning all processors reproduces the central MPC exactly.
  std::size_t shard_size = 32;

  void validate() const;
};

// How a period's shards share the measurement (see the header comment).
enum class Sweep {
  kGaussSeidel,  // HIER: each shard solves against ũ advanced by its
                 // predecessors' moves
  kJacobi,       // DEUCON: every shard solves against the measured u
};

class HierarchicalMpcController final : public Controller {
 public:
  HierarchicalMpcController(SparsePlantModel model, MpcParams params,
                            HierarchicalParams hier,
                            linalg::Vector initial_rates,
                            Sweep sweep = Sweep::kGaussSeidel);

  // DEUCON: one-processor shards, Jacobi sweep.
  static std::unique_ptr<HierarchicalMpcController> decentralized(
      SparsePlantModel model, MpcParams params, linalg::Vector initial_rates);

  const linalg::Vector& update(const linalg::Vector& u) override EUCON_REALTIME;
  std::string name() const override {
    return sweep_ == Sweep::kJacobi ? "DEUCON" : "HIER";
  }
  // The sweep's record, folded from its solving shards: iterations summed;
  // fast path when every shard's held; fallback when any shard's did; the
  // first non-optimal status in shard order; no active rows. One shard
  // reports what the central MPC does, except for the active rows.
  const Diagnostics* diagnostics() const override { return &diag_; }

  // Introspection for tests and benches. Shard-level accessors describe
  // the BASE partition, where shard s holds processors
  // [s · shard_size, (s + 1) · shard_size); the staggered partition
  // mirrors it with boundaries shifted by shard_size / 2.
  std::size_t num_shards() const { return partitions_.front().size(); }
  // Tasks owned by shard s (global task indices, ascending).
  const std::vector<std::size_t>& shard_tasks(std::size_t s) const;
  // Rows shard s observes (global processor indices, ascending; includes
  // boundary processors outside the shard).
  const std::vector<std::size_t>& shard_rows(std::size_t s) const;
  // Decision variables of the largest local optimization.
  std::size_t max_shard_problem_size() const;
  // Capacity of the shared QP workspace (variables, constraint rows).
  std::pair<std::size_t, std::size_t> workspace_capacity() const;

 private:
  struct Shard {
    std::vector<std::size_t> owned;  // global task indices, ascending
    std::vector<std::size_t> rows;   // global processor indices, ascending
    linalg::Vector u_scratch;        // reconciled measurement buffer
    linalg::Vector r_scratch;        // rate resync gather buffer
    std::unique_ptr<MpcController> local;
  };

  std::vector<Shard> build_partition(std::size_t offset, MpcParams params);

  SparsePlantModel model_;
  HierarchicalParams hier_;
  Sweep sweep_;
  // partitions_[0] is the base partition; partitions_[1], present unless
  // the base is a single all-covering shard (or shard_size == 1), has its
  // boundaries shifted by shard_size / 2. update() alternates.
  std::vector<std::vector<Shard>> partitions_;
  linalg::SparseMatrix ft_;     // F^T: per-task processor lists (CSR rows)
  linalg::Vector u_pred_;       // sweep input; Gauss–Seidel advances it
  std::size_t period_ = 0;      // parity selects the sweep partition
  qp::QpWorkspace shared_ws_;   // one workspace for every local QP
  linalg::Vector rates_;
  Diagnostics diag_;
};

}  // namespace eucon::control
