#include "control/mpc.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace eucon::control {

using linalg::Matrix;
using linalg::Vector;

void MpcParams::validate(std::size_t n, std::size_t m) const {
  EUCON_REQUIRE(prediction_horizon >= 1, "prediction horizon must be >= 1");
  EUCON_REQUIRE(control_horizon >= 1 && control_horizon <= prediction_horizon,
                "control horizon must be in [1, P]");
  EUCON_REQUIRE(tref_over_ts > 0.0, "Tref/Ts must be positive");
  EUCON_REQUIRE(q.empty() || q.size() == n, "Q weight size mismatch");
  EUCON_REQUIRE(r.empty() || r.size() == m, "R weight size mismatch");
  for (std::size_t i = 0; i < q.size(); ++i)
    EUCON_REQUIRE(q[i] >= 0.0, "Q weights must be non-negative");
  for (std::size_t i = 0; i < r.size(); ++i)
    EUCON_REQUIRE(r[i] > 0.0, "R weights must be positive");
}

namespace {

Vector weights_or_ones(const Vector& w, std::size_t size) {
  return w.empty() ? Vector(size, 1.0) : w;
}

// The number of input blocks that step i sums: r(k+i|k) - r(k-1) = S_i x,
// where the m×(mM) selector S_i holds an identity in each of its first
// min(i, M) blocks. So F S_i is F copied into those blocks.
std::size_t selected_blocks(int control_horizon, int i) {
  return static_cast<std::size_t>(std::min(i, control_horizon));
}

}  // namespace

MpcMatrices build_mpc_matrices(const PlantModel& model, const MpcParams& params) {
  model.validate();
  const std::size_t n = model.num_processors();
  const std::size_t m = model.num_tasks();
  params.validate(n, m);

  const int p = params.prediction_horizon;
  const int mh = params.control_horizon;
  const Vector q = weights_or_ones(params.q, n);
  const Vector r = weights_or_ones(params.r, m);

  const std::size_t rows = n * static_cast<std::size_t>(p) +
                           m * static_cast<std::size_t>(mh);
  const std::size_t cols = m * static_cast<std::size_t>(mh);

  MpcMatrices mats;
  mats.c = Matrix(rows, cols);
  mats.du = Matrix(rows, n);
  mats.dr = Matrix(rows, m);

  // Tracking blocks: sqrt(Q) (F S_i x - (ref_i - u(k))) for i = 1..P, with
  // ref_i - u(k) = (1 - e^{-i/(Tref/Ts)}) (B - u(k))   (eq. 8).
  std::size_t row0 = 0;
  for (int i = 1; i <= p; ++i, row0 += n) {
    const std::size_t blocks = selected_blocks(mh, i);
    const double shape = 1.0 - std::exp(-static_cast<double>(i) / params.tref_over_ts);
    for (std::size_t rr = 0; rr < n; ++rr) {
      const double sq = std::sqrt(q[rr]);
      for (std::size_t blk = 0; blk < blocks; ++blk)
        for (std::size_t j = 0; j < m; ++j)
          mats.c(row0 + rr, blk * m + j) = sq * model.f(rr, j);
      mats.du(row0 + rr, rr) = sq * shape;
    }
  }

  // Control-penalty blocks for i = 0..M-1. kDeltaRate penalizes
  // sqrt(R) Δr(k+i|k); kDeltaDeltaRate penalizes the successive difference
  // sqrt(R) (Δr(k+i|k) - Δr(k+i-1|k)), where for i = 0 the subtrahend is
  // the previously applied Δr(k-1), carried on the d side.
  for (int i = 0; i < mh; ++i, row0 += m) {
    for (std::size_t rr = 0; rr < m; ++rr) {
      const double sr = std::sqrt(r[rr]);
      mats.c(row0 + rr, static_cast<std::size_t>(i) * m + rr) = sr;
      if (params.penalty_form == PenaltyForm::kDeltaDeltaRate) {
        if (i > 0)
          mats.c(row0 + rr, static_cast<std::size_t>(i - 1) * m + rr) = -sr;
        else
          mats.dr(row0 + rr, rr) = sr;
      }
    }
  }
  EUCON_ASSERT(row0 == rows, "MPC matrix assembly row mismatch");
  return mats;
}

linalg::SparseMatrix build_constraint_rows(const PlantModel& model,
                                           int control_horizon,
                                           const std::vector<bool>& tracked) {
  const std::size_t n = model.num_processors();
  const std::size_t m = model.num_tasks();
  EUCON_REQUIRE(tracked.size() == n, "tracked-processor mask size mismatch");
  EUCON_REQUIRE(control_horizon >= 1, "control horizon must be >= 1");
  const std::size_t mh = static_cast<std::size_t>(control_horizon);
  const Matrix& f = model.f;

  // Distinct utilization constraints exist only for i = 1..M: beyond the
  // control horizon the predicted utilization is constant (S_i = S_M).
  const std::size_t tracked_count = static_cast<std::size_t>(
      std::count(tracked.begin(), tracked.end(), true));
  std::size_t f_nnz = 0;
  for (std::size_t rr = 0; rr < n; ++rr)
    if (tracked[rr])
      for (std::size_t j = 0; j < m; ++j)
        if (std::abs(f(rr, j)) > 0.0) ++f_nnz;
  const std::size_t summed_blocks = mh * (mh + 1) / 2;  // sum of min(i, M)

  linalg::SparseMatrix rows(m * mh);
  rows.reserve((tracked_count + 2 * m) * mh, (f_nnz + 2 * m) * summed_blocks);
  // u(k+i|k) <= B: row rr of F S_i, F's nonzeros in each selected block.
  for (int i = 1; i <= control_horizon; ++i) {
    const std::size_t blocks = selected_blocks(control_horizon, i);
    for (std::size_t rr = 0; rr < n; ++rr) {
      if (!tracked[rr]) continue;
      for (std::size_t blk = 0; blk < blocks; ++blk)
        for (std::size_t j = 0; j < m; ++j)
          if (std::abs(f(rr, j)) > 0.0) rows.push_entry(blk * m + j, f(rr, j));
      rows.end_row();
    }
  }
  // r(k+i-1|k) <= R_max rows, then -r(k+i-1|k) <= -R_min rows: row rr of
  // ±S_i.
  for (int i = 1; i <= control_horizon; ++i) {
    const std::size_t blocks = selected_blocks(control_horizon, i);
    for (const double sign : {1.0, -1.0}) {
      for (std::size_t rr = 0; rr < m; ++rr) {
        for (std::size_t blk = 0; blk < blocks; ++blk)
          rows.push_entry(blk * m + rr, sign);
        rows.end_row();
      }
    }
  }
  EUCON_ASSERT(rows.rows() == (tracked_count + 2 * m) * mh,
               "MPC constraint template row mismatch");
  return rows;
}

MpcController::MpcController(PlantModel model, MpcParams params,
                             Vector initial_rates,
                             qp::QpWorkspace* shared_workspace)
    : model_(std::move(model)),
      active_model_(model_),
      params_(std::move(params)),
      enabled_(model_.num_tasks(), true),
      tracked_(model_.num_processors(), true),
      tracked_count_(model_.num_processors()),
      gain_estimate_(model_.num_processors(), 1.0),
      rates_(std::move(initial_rates)),
      dr_prev_(model_.num_tasks(), 0.0),
      shared_ws_(shared_workspace) {
  model_.validate();
  params_.validate(model_.num_processors(), model_.num_tasks());
  EUCON_REQUIRE(rates_.size() == model_.num_tasks(),
                "initial rate vector size mismatch");
  rates_ = rates_.clamped(model_.rate_min, model_.rate_max);
  rebuild_active_model();
}

void MpcController::set_set_points(const Vector& b) {
  EUCON_REQUIRE(b.size() == model_.num_processors(), "set-point size mismatch");
  model_.b = b;
  model_.validate();
  active_model_.b = b;
}

void MpcController::rebuild_active_model() {
  // Untracked processors keep their du rows in build_mpc_matrices (sq·shape
  // entries), but their C tracking rows are all zero here, so the residual
  // on those rows is a constant — it shifts the cost, never the argmin. C
  // keeps full column rank through the control-penalty rows regardless.
  active_model_.f = model_.f;
  for (std::size_t i = 0; i < active_model_.f.rows(); ++i)
    for (std::size_t j = 0; j < active_model_.f.cols(); ++j)
      active_model_.f(i, j) = tracked_[i] && enabled_[j]
                                  ? gain_estimate_[i] * model_.f(i, j)
                                  : 0.0;
  MpcMatrices mats = build_mpc_matrices(active_model_, params_);
  const std::size_t n = active_model_.num_processors();
  const std::size_t m = active_model_.num_tasks();
  const std::size_t tracking_rows =
      n * static_cast<std::size_t>(params_.prediction_horizon);
  du_diag_ = Vector(tracking_rows);
  for (std::size_t k = 0; k < tracking_rows; ++k)
    du_diag_[k] = mats.du(k, k % n);
  const bool delta_delta = params_.penalty_form == PenaltyForm::kDeltaDeltaRate;
  dr_diag_ = Vector(delta_delta ? m : 0);
  for (std::size_t j = 0; j < dr_diag_.size(); ++j)
    dr_diag_[j] = mats.dr(tracking_rows + j, j);
  // Rows past the tracking rows and dr's block stay zero in every period.
  d_ = Vector(mats.c.rows());
  solver_.reset(std::move(mats.c));
  rebuild_constraint_templates();
}

void MpcController::rebuild_constraint_templates() {
  const std::size_t mh = static_cast<std::size_t>(params_.control_horizon);
  const std::size_t cols = active_model_.num_tasks() * mh;
  // Untracked processors get no utilization rows at all (row-skipping): a
  // zeroed-F row with a stale u > B on the right-hand side would make the
  // instance unconditionally infeasible.
  rows_ = build_constraint_rows(active_model_, params_.control_horizon,
                                tracked_);
  util_rows_ = tracked_count_ * mh;
  b_scratch_ = Vector(rows_.rows());

  // Size the QP workspace for the full template here, off the hot path:
  // update() then solves either instance without allocating. At most
  // `cols` rows are ever active, so the reported set never regrows either.
  active_workspace().reserve(cols, rows_.rows());
  result_.active.reserve(cols);
}

void MpcController::set_enabled_tasks(const std::vector<bool>& enabled) {
  EUCON_REQUIRE(enabled.size() == model_.num_tasks(),
                "enabled-task mask size mismatch");
  EUCON_REQUIRE(std::find(enabled.begin(), enabled.end(), true) != enabled.end(),
                "at least one task must stay enabled");
  enabled_ = enabled;
  for (std::size_t j = 0; j < enabled_.size(); ++j)
    if (!enabled_[j]) dr_prev_[j] = 0.0;
  rebuild_active_model();
}

void MpcController::set_tracked_processors(const std::vector<bool>& tracked) {
  EUCON_REQUIRE(tracked.size() == model_.num_processors(),
                "tracked-processor mask size mismatch");
  EUCON_REQUIRE(std::find(tracked.begin(), tracked.end(), true) != tracked.end(),
                "at least one processor must stay tracked");
  if (tracked == tracked_) return;  // nothing to rebuild
  tracked_ = tracked;
  tracked_count_ = static_cast<std::size_t>(
      std::count(tracked_.begin(), tracked_.end(), true));
  rebuild_active_model();
}

void MpcController::reset_rates(const linalg::Vector& rates) {
  EUCON_REQUIRE(rates.size() == model_.num_tasks(),
                "rate vector size mismatch");
  EUCON_CHECK_FINITE_VEC("MpcController::reset_rates input", rates);
  rates_ = rates.clamped(model_.rate_min, model_.rate_max);
  dr_prev_ = Vector(model_.num_tasks(), 0.0);
}

void MpcController::sync_rates(const linalg::Vector& rates) {
  EUCON_REQUIRE(rates.size() == model_.num_tasks(),
                "rate vector size mismatch");
  for (std::size_t j = 0; j < rates_.size(); ++j)
    rates_[j] =
        std::clamp(rates[j], model_.rate_min[j], model_.rate_max[j]);
}

void MpcController::set_allocation_matrix(const linalg::Matrix& f) {
  EUCON_REQUIRE(f.rows() == model_.num_processors() &&
                    f.cols() == model_.num_tasks(),
                "allocation matrix size mismatch");
  model_.f = f;
  model_.validate();
  rebuild_active_model();
}

void MpcController::set_gain_estimate(const linalg::Vector& gains) {
  EUCON_REQUIRE(gains.size() == model_.num_processors(),
                "gain estimate size mismatch");
  for (std::size_t i = 0; i < gains.size(); ++i)
    EUCON_REQUIRE(gains[i] > 0.0, "gain estimates must be positive");
  gain_estimate_ = gains;
  rebuild_active_model();
}

void MpcController::assemble_d(const Vector& u) {
  const std::size_t n = active_model_.num_processors();
  for (std::size_t k = 0; k < du_diag_.size(); ++k)
    d_[k] = du_diag_[k] * (active_model_.b[k % n] - u[k % n]);
  const std::size_t first_penalty_row = du_diag_.size();
  for (std::size_t j = 0; j < dr_diag_.size(); ++j)
    d_[first_penalty_row + j] = dr_diag_[j] * dr_prev_[j];
}

void MpcController::fill_constraint_rhs(const Vector& u, bool with_util_rows,
                                        Vector& b) const {
  const std::size_t n = active_model_.num_processors();
  const std::size_t m = active_model_.num_tasks();
  const int mh = params_.control_horizon;

  const std::size_t util_rows =
      with_util_rows ? tracked_count_ * static_cast<std::size_t>(mh) : 0;
  const std::size_t rate_rows = 2 * m * static_cast<std::size_t>(mh);
  // Within the capacity reserved for the full template at rebuild.
  b.reshape(util_rows + rate_rows);

  std::size_t row0 = 0;
  if (with_util_rows) {
    // Mirrors the row-skipping layout of rebuild_constraint_templates.
    for (int i = 1; i <= mh; ++i)
      for (std::size_t rr = 0; rr < n; ++rr)
        if (tracked_[rr]) b[row0++] = active_model_.b[rr] - u[rr];
  }
  for (int i = 1; i <= mh; ++i, row0 += 2 * m) {
    for (std::size_t rr = 0; rr < m; ++rr) {
      b[row0 + rr] = active_model_.rate_max[rr] - rates_[rr];
      b[row0 + m + rr] = rates_[rr] - active_model_.rate_min[rr];
    }
  }
}

void MpcController::solve(const Vector& u, bool with_util_rows) {
  fill_constraint_rhs(u, with_util_rows, b_scratch_);
  const std::size_t first = with_util_rows ? 0 : util_rows_;
  solver_.solve_into(d_, qp::RowsView(rows_, first, rows_.rows() - first),
                     b_scratch_, {}, active_workspace(), result_);
}

const Vector& MpcController::update(const Vector& u) {
  EUCON_REQUIRE(u.size() == active_model_.num_processors(),
                "utilization vector size mismatch");
  EUCON_CHECK_FINITE_VEC("MpcController::update input u", u);
  OBS_TIMED(metrics_, "mpc.update");
  const std::size_t m = active_model_.num_tasks();

  const bool want_util_rows =
      params_.constraint_mode == ConstraintMode::kHardWithFallback;

  assemble_d(u);

  {
    OBS_TIMED(metrics_, "qp.solve");
    solve(u, want_util_rows);
    diag_.iterations = result_.iterations;
    diag_.fallback = want_util_rows && result_.status != qp::Status::kOptimal;
    if (diag_.fallback) {
      // No rate vector within the box meets u <= B (paper §6.2: rate
      // adaptation alone cannot reach the set points), or the solve ran
      // out of iterations. A dual iterate is not primal feasible, so it is
      // never applied: drop the utilization rows and let the tracking term
      // minimize the overshoot instead (best effort).
      solve(u, false);
      diag_.iterations += result_.iterations;
    }
  }
  // A fallback period ran a hard solve that added rows before it failed, so
  // its iteration 0 was not feasible even when the re-solve's was.
  diag_.fast_path = result_.fast_path && !diag_.fallback;
  diag_.status = result_.status;
  diag_.active = result_.active;
  diag_.count_update();

  // Receding horizon: apply only Δr(k|k), clamped into the rate box.
  // Suspended tasks stay frozen. All in place: update() is EUCON_REALTIME,
  // so no temporaries.
  for (std::size_t j = 0; j < m; ++j) {
    const double dr = enabled_[j] ? result_.x[j] : 0.0;
    const double clamped = std::clamp(rates_[j] + dr, active_model_.rate_min[j],
                                      active_model_.rate_max[j]);
    dr_prev_[j] = clamped - rates_[j];
    rates_[j] = clamped;
  }
  EUCON_CHECK_FINITE_VEC("MpcController::update result rates", rates_);
  return rates_;
}

}  // namespace eucon::control
