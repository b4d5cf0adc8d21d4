#include "qp/active_set.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.h"
#include "linalg/cholesky.h"

namespace eucon::qp {

namespace {

using linalg::Matrix;
using linalg::Vector;

// An entering row counts as dependent on the active rows when the part of
// J'a_p outside the active span, d_2, is below 1e-8 of |d| (|d_2|^2 below
// 1e-16 |d|^2): it then gets no primal step, only a dual one.
constexpr double kDependentTol2 = 1e-16;

double dot(const double* x, const double* y, std::size_t n) {
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) acc += x[i] * y[i];
  return acc;
}

// Givens rotation of rows i and k of `m` over columns [from, to):
//   (row_i, row_k) <- (c row_i + s row_k, c row_k - s row_i).
void rotate_rows(Matrix& m, std::size_t i, std::size_t k, std::size_t from,
                 std::size_t to, double c, double s) {
  double* ri = m.row_ptr(i);
  double* rk = m.row_ptr(k);
  for (std::size_t j = from; j < to; ++j) {
    const double xi = ri[j];
    const double xk = rk[j];
    ri[j] = c * xi + s * xk;
    rk[j] = c * xk - s * xi;
  }
}

// Makes row p (with d = J'a_p) the q-th active row: rotates d's entries
// q+1..n-1 into d[q], applying each rotation to the matching columns of J
// (rows of J'), so that J_2' a_p = 0 afterwards; then d[0..q] is R's new
// column.
void add_active(QpWorkspace& ws, std::size_t n, std::size_t& q,
                std::size_t p) {
  for (std::size_t c = n - 1; c > q; --c) {
    const double hi = ws.d[c - 1];
    const double lo = ws.d[c];
    const double h = std::sqrt(hi * hi + lo * lo);
    if (h <= 0.0) continue;  // both zero: nothing to rotate
    ws.d[c - 1] = h;
    ws.d[c] = 0.0;
    rotate_rows(ws.jt, c - 1, c, 0, n, hi / h, lo / h);
  }
  for (std::size_t i = 0; i <= q; ++i) ws.r(i, q) = ws.d[i];
  ws.active[q] = p;
  ws.in_active[p] = 1;
  ++q;
}

// Removes the k-th active row: shifts R's later columns (and the active
// list and multipliers, the entering row's included) one place left, then
// restores R's triangle with Givens rotations of rows (j, j+1), applied to
// the matching columns of J as well.
void drop_active(QpWorkspace& ws, std::size_t n, std::size_t& q,
                 std::size_t k) {
  ws.in_active[ws.active[k]] = 0;
  for (std::size_t i = 0; i < q; ++i) {
    double* row = ws.r.row_ptr(i);
    std::copy(row + k + 1, row + q, row + k);
  }
  for (std::size_t j = k; j + 1 < q; ++j) ws.active[j] = ws.active[j + 1];
  for (std::size_t j = k; j < q; ++j) ws.u[j] = ws.u[j + 1];
  --q;
  for (std::size_t j = k; j < q; ++j) {
    const double hi = ws.r(j, j);
    const double lo = ws.r(j + 1, j);
    const double h = std::sqrt(hi * hi + lo * lo);
    ws.r(j, j) = h;
    ws.r(j + 1, j) = 0.0;
    rotate_rows(ws.r, j, j + 1, j + 1, q, hi / h, lo / h);
    rotate_rows(ws.jt, j, j + 1, 0, n, hi / h, lo / h);
  }
}

}  // namespace

void QpWorkspace::reserve(std::size_t vars, std::size_t cons) {
  if (vars <= max_vars_ && cons <= max_cons_) return;
  max_vars_ = std::max(max_vars_, vars);
  max_cons_ = std::max(max_cons_, cons);
  jt = Matrix(max_vars_, max_vars_);
  r = Matrix(max_vars_, max_vars_);
  d = Vector(max_vars_);
  rd = Vector(max_vars_);
  u = Vector(max_vars_ + 1);
  active.assign(max_vars_, 0);
  in_active.assign(max_cons_, 0);
}

void inverse_factor_into(const Matrix& l, Matrix& jt) {
  const std::size_t n = l.rows();
  EUCON_REQUIRE(l.cols() == n, "inverse_factor_into: L must be square");
  jt.reshape(n, n);
  jt.fill(0.0);
  // Column c of L^{-1} by forward substitution on L w = e_c.
  for (std::size_t c = 0; c < n; ++c) {
    jt(c, c) = 1.0 / l(c, c);
    for (std::size_t i = c + 1; i < n; ++i) {
      double acc = 0.0;
      for (std::size_t k = c; k < i; ++k) acc -= l(i, k) * jt(k, c);
      jt(i, c) = acc / l(i, i);
    }
  }
  EUCON_CHECK_FINITE_MAT("inverse_factor_into result", jt);
}

void regularized_inverse_factor_into(Matrix& h, Matrix& jt) {
  for (std::size_t i = 0; i < h.rows(); ++i) h(i, i) += kRegularization;
  EUCON_REQUIRE(linalg::Cholesky::factor_into(h),
                "H + regularization*I is not positive definite");
  inverse_factor_into(h, jt);
}

void unconstrained_minimizer_into(const Matrix& j0t, const Vector& f,
                                  Vector& tmp, Vector& x) {
  const std::size_t n = f.size();
  EUCON_REQUIRE(j0t.rows() == n && j0t.cols() == n, "J0 size mismatch");
  tmp.reshape(n);
  for (std::size_t c = 0; c < n; ++c)
    tmp[c] = dot(j0t.row_ptr(c), f.data().data(), c + 1);
  x.reshape(n);
  x.fill(0.0);
  for (std::size_t c = 0; c < n; ++c) {
    const double* jc = j0t.row_ptr(c);
    for (std::size_t i = 0; i <= c; ++i) x[i] -= jc[i] * tmp[c];
  }
}

Status solve_dual_into(const Matrix& j0t, const Matrix& a, const Vector& b,
                       const Options& opts, QpWorkspace& ws, Vector& x,
                       int& iterations, std::vector<std::size_t>& active) {
  const std::size_t n = x.size();
  const std::size_t m = a.rows();
  EUCON_REQUIRE(j0t.rows() == n && j0t.cols() == n, "J0 size mismatch");
  EUCON_REQUIRE(m == b.size(), "A/b size mismatch");
  EUCON_REQUIRE(m == 0 || a.cols() == n, "A column count mismatch");
  EUCON_REQUIRE(n <= ws.max_vars() && m <= ws.max_cons(),
                "QpWorkspace too small; reserve(vars, cons) first");
  EUCON_CHECK_FINITE_VEC("solve_qp start point", x);
  EUCON_CHECK_FINITE_MAT("solve_qp input A", a);
  EUCON_CHECK_FINITE_VEC("solve_qp input b", b);

  iterations = 0;
  std::size_t q = 0;
  std::fill(ws.in_active.begin(), ws.in_active.begin() + m,
            static_cast<unsigned char>(0));
  bool loaded = false;
  Status status = Status::kOptimal;
  for (;;) {
    // The most violated inactive row (ties keep the lowest index).
    std::size_t p = m;
    double worst = kConstraintTol;
    for (std::size_t i = 0; i < m; ++i) {
      if (ws.in_active[i]) continue;
      const double viol = linalg::row_dot(a, i, x) - b[i];
      if (viol > worst) {
        worst = viol;
        p = i;
      }
    }
    if (p == m) break;  // primal feasible: optimal

    if (!loaded) {
      // Iteration 0 found a violated row: only now is J0 needed.
      ws.jt.reshape(n, n);
      if (&j0t != &ws.jt)
        std::copy(j0t.data().begin(), j0t.data().end(),
                  ws.jt.data().begin());
      ws.r.reshape(n, n);
      ws.d.reshape(n);
      ws.rd.reshape(n);
      ws.u.reshape(n + 1);
      loaded = true;
    }
    ws.u[q] = 0.0;

    // Move x and the multipliers until row p is satisfied (a full step,
    // which adds it) or an active multiplier reaches zero (a partial or
    // dual-only step, which drops that row and retries).
    const double* ap = a.row_ptr(p);
    for (bool added = false; !added;) {
      double d1 = 0.0;
      double d2 = 0.0;  // |d_2|^2 = -a_p'z for the primal step z = -J_2 d_2
      for (std::size_t c = 0; c < n; ++c) {
        ws.d[c] = dot(ws.jt.row_ptr(c), ap, n);
        (c < q ? d1 : d2) += ws.d[c] * ws.d[c];
      }
      // rd = R^{-1} d_1: how fast each active multiplier falls per unit of
      // the entering one.
      for (std::size_t i = q; i-- > 0;) {
        const double* ri = ws.r.row_ptr(i);
        double acc = ws.d[i];
        for (std::size_t j = i + 1; j < q; ++j) acc -= ri[j] * ws.rd[j];
        ws.rd[i] = acc / ri[i];
      }
      double t1 = std::numeric_limits<double>::infinity();
      std::size_t k = q;
      for (std::size_t j = 0; j < q; ++j) {
        if (ws.rd[j] > 0.0 && ws.u[j] / ws.rd[j] < t1) {
          t1 = ws.u[j] / ws.rd[j];
          k = j;
        }
      }
      const bool primal = d2 > kDependentTol2 * (d1 + d2);
      if (!primal && k == q) {
        status = Status::kInfeasible;  // no primal or dual step
        break;
      }
      if (iterations >= opts.max_iterations) {
        status = Status::kMaxIterations;
        break;
      }
      double t = t1;
      if (primal) {
        const double t2 = (linalg::row_dot(a, p, x) - b[p]) / d2;
        added = t2 <= t1;
        if (added) t = t2;
        for (std::size_t c = q; c < n; ++c) {
          const double step = t * ws.d[c];
          const double* jc = ws.jt.row_ptr(c);
          for (std::size_t i = 0; i < n; ++i) x[i] -= step * jc[i];
        }
      }
      for (std::size_t j = 0; j < q; ++j) ws.u[j] -= t * ws.rd[j];
      ws.u[q] += t;
      ++iterations;
      if (added)
        add_active(ws, n, q, p);
      else
        drop_active(ws, n, q, k);
    }
    if (status != Status::kOptimal) break;
  }

  // Report the active rows in ascending order.
  std::size_t count = 0;
  for (std::size_t i = 0; i < m && count < q; ++i)
    if (ws.in_active[i]) ws.active[count++] = i;
  active.assign(ws.active.begin(),
                ws.active.begin() + static_cast<std::ptrdiff_t>(q));
  EUCON_CHECK_FINITE_VEC("solve_qp result", x);
  return status;
}

void solve_qp_into(const Matrix& h, const Vector& f, const Matrix& a,
                   const Vector& b, const Options& opts, QpWorkspace& ws,
                   Result& out) {
  const std::size_t n = f.size();
  EUCON_REQUIRE(h.rows() == n && h.cols() == n, "H size mismatch");
  EUCON_REQUIRE(n <= ws.max_vars() && a.rows() <= ws.max_cons(),
                "QpWorkspace too small; reserve(vars, cons) first");
  EUCON_CHECK_FINITE_MAT("solve_qp input H", h);
  EUCON_CHECK_FINITE_VEC("solve_qp input f", f);

  // L L' = H + kRegularization·I in ws.r, then J0' = L^{-1} in ws.jt.
  ws.r.reshape(n, n);
  std::copy(h.data().begin(), h.data().end(), ws.r.data().begin());
  regularized_inverse_factor_into(ws.r, ws.jt);

  unconstrained_minimizer_into(ws.jt, f, ws.d, out.x);
  out.status = solve_dual_into(ws.jt, a, b, opts, ws, out.x, out.iterations,
                               out.active);
  linalg::multiply_into(h, out.x, ws.d);
  out.objective = 0.5 * out.x.dot(ws.d) + f.dot(out.x);
}

Result solve_qp(const Matrix& h, const Vector& f, const Matrix& a,
                const Vector& b, const Options& opts) {
  QpWorkspace ws;
  ws.reserve(f.size(), a.rows());
  Result out;
  solve_qp_into(h, f, a, b, opts, ws, out);
  return out;
}

double max_violation(const Matrix& a, const Vector& b, const Vector& x) {
  double worst = 0.0;
  for (std::size_t i = 0; i < a.rows(); ++i)
    worst = std::max(worst, linalg::row_dot(a, i, x) - b[i]);
  return worst;
}

}  // namespace eucon::qp
