#include "qp/lsqlin.h"

#include <cmath>

#include "common/check.h"

namespace eucon::qp {

using linalg::Matrix;
using linalg::Vector;

LsqlinResult lsqlin(const LsqlinProblem& prob, const Options& opts) {
  const std::size_t n = prob.c.cols();
  EUCON_REQUIRE(prob.c.rows() == prob.d.size(), "lsqlin: C/d size mismatch");
  EUCON_REQUIRE(prob.lb.empty() || prob.lb.size() == n, "lsqlin: lb size");
  EUCON_REQUIRE(prob.ub.empty() || prob.ub.size() == n, "lsqlin: ub size");
  EUCON_CHECK_FINITE_MAT("lsqlin input C", prob.c);
  EUCON_CHECK_FINITE_VEC("lsqlin input d", prob.d);

  // Fold the box constraints into the inequality system.
  std::size_t extra = 0;
  if (!prob.lb.empty()) extra += n;
  if (!prob.ub.empty()) extra += n;
  Matrix a(prob.a.rows() + extra, n);
  Vector b(prob.a.rows() + extra);
  if (prob.a.rows() > 0) {
    EUCON_REQUIRE(prob.a.cols() == n, "lsqlin: A column mismatch");
    a.set_block(0, 0, prob.a);
    for (std::size_t i = 0; i < prob.a.rows(); ++i) b[i] = prob.b[i];
  }
  std::size_t row = prob.a.rows();
  if (!prob.ub.empty()) {
    for (std::size_t j = 0; j < n; ++j, ++row) {
      a(row, j) = 1.0;
      b[row] = prob.ub[j];
    }
  }
  if (!prob.lb.empty()) {
    for (std::size_t j = 0; j < n; ++j, ++row) {
      a(row, j) = -1.0;
      b[row] = -prob.lb[j];
    }
  }

  LsqlinSolver solver(prob.c);
  return solver.solve(prob.d, a, b, opts);
}

LsqlinSolver::LsqlinSolver(linalg::Matrix c) : c_(std::move(c)) {
  factorize();
}

void LsqlinSolver::reset(linalg::Matrix c) {
  c_ = std::move(c);
  factorize();
}

void LsqlinSolver::factorize() {
  const std::size_t n = c_.cols();
  qr_.reset();
  if (c_.rows() >= n) {
    qr_.emplace(c_);
    if (!qr_->full_rank()) qr_.reset();
  }
  Matrix l(n, n);
  if (qr_) {
    // H = 2 C'C = LL' with L = sqrt(2) R'.
    const Matrix& r = qr_->r();
    const double root2 = std::sqrt(2.0);
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t k = 0; k <= i; ++k) l(i, k) = root2 * r(k, i);
    inverse_factor_into(l, j0t_);
  } else {
    linalg::gram_into(c_, l);
    l *= 2.0;
    regularized_inverse_factor_into(l, j0t_);
  }
  factor_.reserve(n);
}

LsqlinResult LsqlinSolver::solve(const Vector& d, const RowsView& a,
                                 const Vector& b, const Options& opts) {
  ws_.reserve(c_.cols(), a.rows());  // growth-only; no-op across same shapes
  LsqlinResult out;
  solve_into(d, a, b, opts, ws_, out);
  Vector resid = c_ * out.x;
  resid -= d;
  out.residual_norm = resid.norm2();
  return out;
}

void LsqlinSolver::solve_into(const Vector& d, const RowsView& a,
                              const Vector& b, const Options& opts,
                              QpWorkspace& ws, LsqlinResult& out) {
  EUCON_REQUIRE(d.size() == c_.rows(), "LsqlinSolver: C/d size mismatch");
  EUCON_REQUIRE(a.rows() == b.size(), "LsqlinSolver: A/b size mismatch");
  EUCON_REQUIRE(a.rows() == 0 || a.cols() == c_.cols(),
                "LsqlinSolver: A column mismatch");
  EUCON_CHECK_FINITE_VEC("LsqlinSolver input d", d);

  // Iteration 0: the unconstrained minimizer, from the cached QR when C has
  // full column rank (out.x and y_ are reused, so this allocates nothing).
  if (qr_) {
    qr_->solve_least_squares_into(d, y_, out.x);
  } else {
    linalg::transpose_times_into(c_, d, f_);
    f_ *= -2.0;
    unconstrained_minimizer_into(j0t_, f_, y_, out.x);
  }
  const DualRun run = solve_dual_into(j0t_, a, b, opts, ws, factor_, out.x,
                                      out.active);
  out.status = run.status;
  out.iterations = run.iterations;
  out.fast_path = run.fast_path;
  EUCON_CHECK_FINITE_VEC("LsqlinSolver result", out.x);
}

}  // namespace eucon::qp
