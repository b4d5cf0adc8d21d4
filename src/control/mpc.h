// The EUCON model predictive controller (paper §6).
//
// Each sampling period the controller minimizes the cost (eq. 7)
//
//   V(k) =  Σ_{i=1..P} ||u(k+i|k) - ref(k+i|k)||²_Q
//         + Σ_{i=0..M-1} ||Δr(k+i|k) - Δr(k+i-1|k)||²_R
//
// over the input trajectory x = [Δr(k|k); …; Δr(k+M-1|k)], subject to the
// utilization constraints u(k+i|k) <= B and the rate limits
// R_min <= r(k+i|k) <= R_max, using the approximate model (eq. 6, 9)
// u(k+i|k) = u(k) + F Σ_{j<=min(i,M)-1} Δr(k+j|k) and the exponential
// reference trajectory (eq. 8). Only Δr(k|k) is applied (receding horizon).
//
// The optimization is a constrained least-squares problem solved with the
// in-repo dual active-set lsqlin (the paper used MATLAB's).
#pragma once

#include <cstdint>

#include "common/annotations.h"
#include "control/controller.h"
#include "control/model.h"
#include "linalg/sparse.h"
#include "obs/registry.h"
#include "qp/lsqlin.h"

namespace eucon::control {

// The control-penalty term of the cost function. The paper's eq. (7)
// literally reads ||Δr(k+i|k) - Δr(k+i-1|k)||², but that form leaves the
// closed loop *marginally* stable in the null space of F (rates can ramp
// forever in directions that change no utilization) and contradicts the
// paper's own first-order closed-loop model u(k) = A u(k-1) + C (§6.2).
// The form consistent with that analysis — and with the published EUCON
// follow-ons (DEUCON, FC-ORB) — penalizes the rate change itself,
// ||Δr(k+i|k)||², which is the default here. The literal reading remains
// available for the ablation bench.
enum class PenaltyForm {
  kDeltaRate,       // ||Δr(k+i|k)||²   (default; matches §6.2's analysis)
  kDeltaDeltaRate,  // ||Δr(k+i|k) - Δr(k+i-1|k)||²  (eq. 7 verbatim)
};

enum class ConstraintMode {
  // Enforce u(k+i|k) <= B; when the solver finds no feasible rate vector
  // (e.g. severe overload against R_min), retry without the utilization
  // rows so the tracking objective still pulls utilization down (best
  // effort).
  kHardWithFallback,
  // Never add the utilization rows; rely on tracking alone. (Ablation.)
  kSoftOnly,
};

struct MpcParams {
  int prediction_horizon = 2;  // P
  int control_horizon = 1;     // M (<= P)
  double tref_over_ts = 4.0;   // reference-trajectory time constant (eq. 8)
  linalg::Vector q;            // per-processor tracking weights (empty = 1)
  linalg::Vector r;            // per-task control-penalty weights (empty = 1)
  PenaltyForm penalty_form = PenaltyForm::kDeltaRate;
  ConstraintMode constraint_mode = ConstraintMode::kHardWithFallback;

  void validate(std::size_t n, std::size_t m) const;
};

// The constant matrices of the quadratic program. d(k) is assembled per
// period as  d = du (B - u(k)) + dr Δr(k-1). du is nonzero only on the
// diagonal of each tracking block, and dr only on the diagonal of the first
// control-penalty block under kDeltaDeltaRate (it is zero under
// kDeltaRate).
struct MpcMatrices {
  linalg::Matrix c;   // (nP + mM) × mM stacked least-squares matrix
  linalg::Matrix du;  // (nP + mM) × n
  linalg::Matrix dr;  // (nP + mM) × m
};

MpcMatrices build_mpc_matrices(const PlantModel& model, const MpcParams& params);

// The MPC's constraint rows over x, in CSR: u(k+i|k) <= B for i = 1..M, one
// row per tracked processor (F's nonzeros in each of S_i's blocks), then
// for each i the rows r(k+i-1|k) <= R_max and -r(k+i-1|k) <= -R_min (one
// ±1 per selected block). `tracked` has one flag per processor. The
// rate-bound rows are the last 2mM; MpcController solves over all rows, or
// over that tail alone when the full instance is infeasible.
linalg::SparseMatrix build_constraint_rows(const PlantModel& model,
                                           int control_horizon,
                                           const std::vector<bool>& tracked);

class MpcController final : public Controller {
 public:
  // `shared_workspace` (optional) routes the QP through a caller-owned
  // workspace, which this controller reserves for its full constraint
  // template (growth-only); the private one is then never sized. The
  // hierarchical controller shares one across every local MPC, so scratch
  // scales with the largest local problem. It must outlive the controller,
  // and controllers updated concurrently must not share one.
  MpcController(PlantModel model, MpcParams params,
                linalg::Vector initial_rates,
                qp::QpWorkspace* shared_workspace = nullptr);

  const linalg::Vector& update(const linalg::Vector& u) override EUCON_REALTIME;
  std::string name() const override { return "EUCON"; }

  const PlantModel& model() const { return model_; }
  const MpcParams& params() const { return params_; }
  linalg::Vector current_rates() const { return rates_; }

  // Allows online set-point changes (overload-protection use case, §3.3).
  void set_set_points(const linalg::Vector& b);

  // Marks tasks as suspended (admission control, §6.2): a suspended task's
  // allocation column is zeroed in the prediction model and its rate is
  // frozen, so the optimizer neither relies on it nor drifts it. Pass one
  // flag per task; all-true restores normal operation.
  void set_enabled_tasks(const std::vector<bool>& enabled);
  const std::vector<bool>& enabled_tasks() const { return enabled_; }

  // Drops processors from the tracked set (stale-lane degradation — see
  // eucon/faults.h and docs/robustness.md): an untracked processor's
  // allocation row is zeroed in the prediction model and its utilization
  // constraint rows are omitted from the QP, so a stale measurement can
  // neither attract the optimizer nor render the instance infeasible
  // (0·x <= B - u_stale would be unsatisfiable for u_stale > B). Pass one
  // flag per processor; all-true restores normal operation. At least one
  // processor must stay tracked.
  void set_tracked_processors(const std::vector<bool>& tracked);
  const std::vector<bool>& tracked_processors() const { return tracked_; }

  // Resynchronizes the controller's rate belief r(k-1) with externally
  // applied rates (watchdog recovery after a blackout handled by a backup
  // policy). Clamps into [R_min, R_max] and zeroes the carried Δr(k-1).
  void reset_rates(const linalg::Vector& rates);

  // Hot-path variant of reset_rates for coordinators that interleave
  // several controllers over the same actuators (hierarchical staggered
  // sweeps): clamps element-wise into the existing buffer — no
  // allocation — and keeps the carried Δr(k-1).
  void sync_rates(const linalg::Vector& rates) EUCON_REALTIME;

  // Replaces the allocation matrix after a task reallocation (§6.2): the
  // prediction model follows the new placement; rates and set points are
  // untouched.
  void set_allocation_matrix(const linalg::Matrix& f);

  // Installs utilization-gain estimates ĝ (one per processor): the
  // prediction model becomes u(k+1) = u(k) + diag(ĝ) F Δr(k), replacing
  // the paper's G = I assumption. Used by AdaptiveMpcController.
  void set_gain_estimate(const linalg::Vector& gains);
  const linalg::Vector& gain_estimate() const { return gain_estimate_; }

  // Δr(k-1) as actually applied — exposed so adaptive wrappers can form
  // the predicted utilization change F Δr(k-1) for gain estimation.
  const linalg::Vector& last_applied_delta() const { return dr_prev_; }

  const Diagnostics* diagnostics() const override { return &diag_; }
  // The record's run totals, for callers holding an MpcController.
  std::uint64_t update_count() const { return diag_.updates; }
  std::uint64_t qp_iterations_total() const { return diag_.qp_iterations; }
  std::uint64_t fast_path_hits() const { return diag_.fast_path_hits; }
  std::uint64_t fallback_count() const { return diag_.fallbacks; }

  // Attaches a metrics registry (null detaches): update() then records the
  // `mpc.update` / `qp.solve` scoped timers and nothing else changes. The
  // registry must outlive the controller or the next set call.
  void set_metrics_registry(obs::Registry* registry) { metrics_ = registry; }

 private:
  // Rebuilds the constraint template (it depends only on the active model,
  // not on u or the current rates) and sizes the QP scratch for it.
  void rebuild_constraint_templates();
  // Fills the per-period right-hand side for the chosen template in place.
  void fill_constraint_rhs(const linalg::Vector& u, bool with_util_rows,
                           linalg::Vector& b) const;
  // Solves this period's QP on the chosen template into result_.
  void solve(const linalg::Vector& u, bool with_util_rows);
  // Assembles d(k) = du (B - u(k)) + dr Δr(k-1) into the d_ scratch, from
  // the diagonals of du and dr.
  void assemble_d(const linalg::Vector& u);
  // Recomputes active_model_.f = diag(gain) * (mask-filtered F), the MPC
  // matrices, the solver's cached factorization and the constraint
  // templates.
  void rebuild_active_model();

  PlantModel model_;       // as configured
  PlantModel active_model_;  // with suspended tasks' columns zeroed
  MpcParams params_;
  qp::LsqlinSolver solver_;  // owns and factors the MPC matrix C
  // The nonzeros of du and dr (see MpcMatrices): du_diag_[k] = du(k, k % n)
  // for the nP tracking rows; dr_diag_[j] = dr(nP + j, j), empty under
  // kDeltaRate.
  linalg::Vector du_diag_;
  linalg::Vector dr_diag_;
  std::vector<bool> enabled_;
  std::vector<bool> tracked_;      // per-processor; false = stale, ignored
  std::size_t tracked_count_ = 0;  // number of true flags in tracked_
  linalg::Vector gain_estimate_;  // per-processor; all-ones = paper's G = I
  linalg::Vector rates_;    // r(k-1), the currently applied rates
  linalg::Vector dr_prev_;  // Δr(k-1) actually applied
  Diagnostics diag_;  // `active` views result_.active
  obs::Registry* metrics_ = nullptr;  // non-owning; null = no metrics

  // build_constraint_rows over the tracked set. The full instance solves
  // over all of its rows; the infeasible-instance fallback over the
  // rate-bound rows alone, a view of the tail.
  linalg::SparseMatrix rows_;
  std::size_t util_rows_ = 0;  // leading rows of rows_ that bound u

  // Per-period scratch, sized at rebuild.
  linalg::Vector b_scratch_;  // capacity for all of rows_; reshaped per solve
  linalg::Vector d_;  // d(k); the rows assemble_d skips stay zero
  qp::LsqlinResult result_;  // per-period solver result (reused as scratch)
  // QP scratch, reserved for the full constraint template so a period's
  // solve — fallback included — never touches the heap.
  qp::QpWorkspace qp_ws_;
  qp::QpWorkspace* shared_ws_ = nullptr;  // non-owning; null = use qp_ws_

  qp::QpWorkspace& active_workspace() {
    return shared_ws_ != nullptr ? *shared_ws_ : qp_ws_;
  }
};

}  // namespace eucon::control
