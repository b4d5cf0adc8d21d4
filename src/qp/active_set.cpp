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

// The Givens rotation mapping (hi, lo) to (h, 0): c = hi/h and s = lo/h for
// h = hypot(hi, lo), which neither squares nor loses its inputs. A carried
// J meets entries whose squares underflow, where sqrt(hi^2 + lo^2) returns
// 0 or a subnormal, and then (c, s) is no longer a unit vector, the
// rotation no longer orthogonal and JJ' no longer H^-1. When h itself is
// subnormal, hypot's result has lost bits too, so the pair is scaled by a
// power of two (exactly) first.
struct Givens {
  double c = 1.0;
  double s = 0.0;
  double h = 0.0;
};

Givens givens(double hi, double lo) {
  const double h = std::hypot(hi, lo);
  if (h >= std::numeric_limits<double>::min()) return {hi / h, lo / h, h};
  if (h <= 0.0) return {};  // both zero: nothing to rotate
  const int e = std::ilogb(std::max(std::abs(hi), std::abs(lo)));
  const double a = std::scalbn(hi, -e);
  const double b = std::scalbn(lo, -e);
  const double scaled = std::hypot(a, b);
  return {a / scaled, b / scaled, h};
}

// Makes row p (with d = J'a_p) the q-th active row: rotates d's entries
// q+1..n-1 into d[q], applying each rotation to the matching columns of J
// (rows of J'), so that J_2' a_p = 0 afterwards; then d[0..q] is R's new
// column.
void add_active(QpWorkspace& ws, DualFactor& f, std::size_t n, std::size_t& q,
                std::size_t p) {
  for (std::size_t c = n - 1; c > q; --c) {
    const Givens g = givens(ws.d[c - 1], ws.d[c]);
    if (g.h <= 0.0) continue;  // both zero: nothing to rotate
    ws.d[c - 1] = g.h;
    ws.d[c] = 0.0;
    rotate_rows(f.jt, c - 1, c, 0, n, g.c, g.s);
  }
  for (std::size_t i = 0; i <= q; ++i) f.r(i, q) = ws.d[i];
  f.order[q] = p;
  ws.in_active[p] = 1;
  ++q;
}

// Removes the k-th active row: shifts R's later columns (and the active
// list and multipliers, the entering row's included) one place left, then
// restores R's triangle with Givens rotations of rows (j, j+1), applied to
// the matching columns of J as well.
void drop_active(QpWorkspace& ws, DualFactor& f, std::size_t n,
                 std::size_t& q, std::size_t k) {
  ws.in_active[f.order[k]] = 0;
  for (std::size_t i = 0; i < q; ++i) {
    double* row = f.r.row_ptr(i);
    std::copy(row + k + 1, row + q, row + k);
  }
  for (std::size_t j = k; j + 1 < q; ++j) f.order[j] = f.order[j + 1];
  for (std::size_t j = k; j < q; ++j) ws.u[j] = ws.u[j + 1];
  --q;
  for (std::size_t j = k; j < q; ++j) {
    const Givens g = givens(f.r(j, j), f.r(j + 1, j));
    f.r(j, j) = g.h;
    f.r(j + 1, j) = 0.0;
    rotate_rows(f.r, j, j + 1, j + 1, q, g.c, g.s);
    rotate_rows(f.jt, j, j + 1, 0, n, g.c, g.s);
  }
}

// How a solve used the carried active set.
enum class Resume {
  kResumed,   // x and the multipliers now sit on the kept rows
  kDeclined,  // as many carried rows would leave as stay: start from J0
  kCapped,    // the iteration cap stopped the warm drops
};

// Resumes from the carried active set (the first q rows of f.order) at the
// unconstrained minimizer x0 = x. With y = R^{-T}(N'x0 - b_N), the
// minimizer on N has multipliers lambda = R^{-1} y; while one is negative,
// the most negative row is dropped (a warm drop, counted in `iterations`)
// and both are recomputed. Then x = x0 - J_1 y and ws.u holds lambda, the
// dual feasible pair the method continues from. A resume pays a drop for
// each row that leaves to save an add for each row that stays, so it is
// declined, touching nothing, when the first multipliers have at least as
// many negative entries as nonnegative ones.
Resume resume(const RowsView& a, const Vector& b, const Options& opts,
              QpWorkspace& ws, DualFactor& f, std::size_t n, std::size_t& q,
              Vector& x, int& iterations) {
  for (bool first = true;; first = false) {
    for (std::size_t j = 0; j < q; ++j) {
      const std::size_t row = f.order[j];
      double acc = a.dot(row, x.data().data()) - b[row];
      for (std::size_t i = 0; i < j; ++i) acc -= f.r(i, j) * ws.rd[i];
      ws.rd[j] = acc / f.r(j, j);
    }
    std::size_t k = q;  // the most negative multiplier
    std::size_t leaving = 0;
    for (std::size_t j = q; j-- > 0;) {
      const double* rj = f.r.row_ptr(j);
      double acc = ws.rd[j];
      for (std::size_t i = j + 1; i < q; ++i) acc -= rj[i] * ws.u[i];
      ws.u[j] = acc / rj[j];
      if (ws.u[j] < 0.0) {
        ++leaving;
        if (k == q || ws.u[j] < ws.u[k]) k = j;
      }
    }
    if (first && 2 * leaving >= q) return Resume::kDeclined;
    if (k == q) break;
    if (iterations >= opts.max_iterations) return Resume::kCapped;
    drop_active(ws, f, n, q, k);
    ++iterations;
  }
  for (std::size_t c = 0; c < q; ++c) {
    const double yc = ws.rd[c];
    const double* jc = f.jt.row_ptr(c);
    for (std::size_t i = 0; i < n; ++i) x[i] -= yc * jc[i];
  }
  return Resume::kResumed;
}

}  // namespace

RowsView::RowsView(const linalg::SparseMatrix& a, std::size_t first,
                   std::size_t count)
    : sparse_(&a), first_(first), rows_(count), cols_(a.cols()) {
  EUCON_REQUIRE(first <= a.rows() && count <= a.rows() - first,
                "RowsView row range out of bounds");
}

void QpWorkspace::reserve(std::size_t vars, std::size_t cons) {
  if (vars <= max_vars_ && cons <= max_cons_) return;
  max_vars_ = std::max(max_vars_, vars);
  max_cons_ = std::max(max_cons_, cons);
  d = Vector(max_vars_);
  rd = Vector(max_vars_);
  u = Vector(max_vars_ + 1);
  in_active.assign(max_cons_, 0);
}

void DualFactor::reserve(std::size_t vars) {
  jt = Matrix(vars, vars);
  r = Matrix(vars, vars);
  order.assign(vars, 0);
  clear();
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

DualRun solve_dual_into(const Matrix& j0t, const RowsView& a, const Vector& b,
                        const Options& opts, QpWorkspace& ws, DualFactor& f,
                        Vector& x, std::vector<std::size_t>& active) {
  const std::size_t n = x.size();
  const std::size_t m = a.rows();
  EUCON_REQUIRE(j0t.rows() == n && j0t.cols() == n, "J0 size mismatch");
  EUCON_REQUIRE(m == b.size(), "A/b size mismatch");
  EUCON_REQUIRE(m == 0 || a.cols() == n, "A column count mismatch");
  EUCON_REQUIRE(n <= ws.max_vars() && m <= ws.max_cons(),
                "QpWorkspace too small; reserve(vars, cons) first");
  EUCON_CHECK_FINITE_VEC("solve_qp start point", x);

  // The carried active set names rows of the solve that left it; over
  // other rows (a template switch, or dense rows) it is forgotten.
  if (!f.key.matches(a.key())) f.clear();
  DualRun run;
  run.status = Status::kOptimal;
  std::size_t q = 0;
  std::fill(ws.in_active.begin(), ws.in_active.begin() + m,
            static_cast<unsigned char>(0));
  bool loaded = false;
  for (;;) {
    // The most violated inactive row (ties keep the lowest index).
    std::size_t p = m;
    double worst = kConstraintTol;
    for (std::size_t i = 0; i < m; ++i) {
      if (ws.in_active[i]) continue;
      const double viol = a.dot(i, x.data().data()) - b[i];
      EUCON_CHECK_FINITE_SCALAR("solve_qp input A, b", viol);
      if (viol > worst) {
        worst = viol;
        p = i;
      }
    }
    if (p == m) break;  // primal feasible: optimal

    if (!loaded) {
      // Iteration 0 found a violated row: only now is the factor needed.
      loaded = true;
      ws.d.reshape(n);
      ws.rd.reshape(n);
      ws.u.reshape(n + 1);
      if (f.q > 0 && f.jt.rows() == n) {
        q = f.q;
        const Resume how = resume(a, b, opts, ws, f, n, q, x, run.iterations);
        if (how == Resume::kCapped) {
          run.status = Status::kMaxIterations;
          break;
        }
        if (how == Resume::kResumed) {
          for (std::size_t j = 0; j < q; ++j) ws.in_active[f.order[j]] = 1;
          continue;  // x moved: scan again
        }
        q = 0;
      }
      f.jt.reshape(n, n);
      if (&j0t != &f.jt)
        std::copy(j0t.data().begin(), j0t.data().end(), f.jt.data().begin());
      f.r.reshape(n, n);
      f.order.assign(n, 0);
    }
    ws.u[q] = 0.0;

    // Move x and the multipliers until row p is satisfied (a full step,
    // which adds it) or an active multiplier reaches zero (a partial or
    // dual-only step, which drops that row and retries).
    for (bool added = false; !added;) {
      double d1 = 0.0;
      double d2 = 0.0;  // |d_2|^2 = -a_p'z for the primal step z = -J_2 d_2
      for (std::size_t c = 0; c < n; ++c) {
        ws.d[c] = a.dot(p, f.jt.row_ptr(c));
        (c < q ? d1 : d2) += ws.d[c] * ws.d[c];
      }
      // rd = R^{-1} d_1: how fast each active multiplier falls per unit of
      // the entering one.
      for (std::size_t i = q; i-- > 0;) {
        const double* ri = f.r.row_ptr(i);
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
        run.status = Status::kInfeasible;  // no primal or dual step
        break;
      }
      if (run.iterations >= opts.max_iterations) {
        run.status = Status::kMaxIterations;
        break;
      }
      double t = t1;
      if (primal) {
        const double t2 = (a.dot(p, x.data().data()) - b[p]) / d2;
        added = t2 <= t1;
        if (added) t = t2;
        for (std::size_t c = q; c < n; ++c) {
          const double step = t * ws.d[c];
          const double* jc = f.jt.row_ptr(c);
          for (std::size_t i = 0; i < n; ++i) x[i] -= step * jc[i];
        }
      }
      for (std::size_t j = 0; j < q; ++j) ws.u[j] -= t * ws.rd[j];
      ws.u[q] += t;
      ++run.iterations;
      if (added)
        add_active(ws, f, n, q, p);
      else
        drop_active(ws, f, n, q, k);
    }
    if (run.status != Status::kOptimal) break;
  }

  run.fast_path = !loaded;
  if (loaded) {
    f.q = q;
    f.key = a.key();
  }
  // Report the active rows in ascending order (f.order keeps entry order).
  active.assign(q, 0);
  std::size_t count = 0;
  for (std::size_t i = 0; i < m && count < q; ++i)
    if (ws.in_active[i]) active[count++] = i;
  EUCON_CHECK_FINITE_VEC("solve_qp result", x);
  return run;
}

void solve_qp_into(const Matrix& h, const Vector& f, const RowsView& a,
                   const Vector& b, const Options& opts, QpWorkspace& ws,
                   DualFactor& factor, Result& out) {
  const std::size_t n = f.size();
  EUCON_REQUIRE(h.rows() == n && h.cols() == n, "H size mismatch");
  EUCON_REQUIRE(n <= ws.max_vars() && a.rows() <= ws.max_cons(),
                "QpWorkspace too small; reserve(vars, cons) first");
  EUCON_CHECK_FINITE_MAT("solve_qp input H", h);
  EUCON_CHECK_FINITE_VEC("solve_qp input f", f);

  // L L' = H + kRegularization·I in factor.r, then J0' = L^{-1} in
  // factor.jt, which the core starts from.
  factor.clear();
  factor.r.reshape(n, n);
  std::copy(h.data().begin(), h.data().end(), factor.r.data().begin());
  regularized_inverse_factor_into(factor.r, factor.jt);

  unconstrained_minimizer_into(factor.jt, f, ws.d, out.x);
  const DualRun run =
      solve_dual_into(factor.jt, a, b, opts, ws, factor, out.x, out.active);
  out.status = run.status;
  out.iterations = run.iterations;
  linalg::multiply_into(h, out.x, ws.d);
  out.objective = 0.5 * out.x.dot(ws.d) + f.dot(out.x);
}

Result solve_qp(const Matrix& h, const Vector& f, const RowsView& a,
                const Vector& b, const Options& opts) {
  QpWorkspace ws;
  ws.reserve(f.size(), a.rows());
  DualFactor factor;
  factor.reserve(f.size());
  Result out;
  solve_qp_into(h, f, a, b, opts, ws, factor, out);
  return out;
}

double max_violation(const RowsView& a, const Vector& b, const Vector& x) {
  EUCON_REQUIRE(a.rows() == b.size() && (a.rows() == 0 || a.cols() == x.size()),
                "max_violation size mismatch");
  double worst = 0.0;
  for (std::size_t i = 0; i < a.rows(); ++i)
    worst = std::max(worst, a.dot(i, x.data().data()) - b[i]);
  return worst;
}

}  // namespace eucon::qp
