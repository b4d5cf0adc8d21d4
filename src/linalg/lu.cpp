#include "linalg/lu.h"

#include <cmath>
#include <cstring>

#include "common/check.h"

namespace eucon::linalg {

namespace {
// Relative threshold below which a pivot is treated as zero.
constexpr double kPivotTol = 1e-13;

// rr[c] -= m * rk[c] for c in [begin, n), two doubles per step, so it
// compiles to packed mulpd/subpd at -O2 and its speed does not depend on
// where the linker happens to place it. Each element is still one
// multiply and one subtract, each rounded once, so results match the
// scalar loop bit for bit (ISO C++ and no -mfma: no contraction).
void eliminate_row(double* rr, const double* rk, double m, std::size_t begin,
                   std::size_t n) {
  using Pair = double __attribute__((vector_size(16)));
  const Pair mm = {m, m};
  std::size_t c = begin;
  for (; c + 2 <= n; c += 2) {
    Pair a;
    Pair b;
    std::memcpy(&a, rr + c, sizeof a);
    std::memcpy(&b, rk + c, sizeof b);
    a -= mm * b;
    std::memcpy(rr + c, &a, sizeof a);
  }
  if (c < n) rr[c] -= m * rk[c];
}

// Shared elimination core: factors `lu` in place, writes the permutation
// into piv[0..n), flips *sign per row swap when non-null. Returns false when
// a pivot is (numerically) zero — the loop still completes so determinant()
// stays meaningful, but solves must be refused.
bool lu_factor(Matrix& lu, std::size_t* piv, int* sign) {
  const std::size_t n = lu.rows();
  for (std::size_t i = 0; i < n; ++i) piv[i] = i;

  double scale = lu.norm_inf();
  if (scale == 0.0) scale = 1.0;  // eucon-lint: allow(float-equality)

  bool invertible = true;
  for (std::size_t k = 0; k < n; ++k) {
    // Partial pivoting: largest magnitude in column k at/below the diagonal.
    std::size_t pivot_row = k;
    double pivot_mag = std::abs(lu(k, k));
    for (std::size_t r = k + 1; r < n; ++r) {
      const double mag = std::abs(lu(r, k));
      if (mag > pivot_mag) {
        pivot_mag = mag;
        pivot_row = r;
      }
    }
    if (pivot_mag <= kPivotTol * scale) {
      invertible = false;
      continue;  // leave the (near-)zero pivot; solves will refuse
    }
    if (pivot_row != k) {
      double* rk = lu.row_ptr(k);
      double* rp = lu.row_ptr(pivot_row);
      for (std::size_t c = 0; c < n; ++c) std::swap(rk[c], rp[c]);
      std::swap(piv[k], piv[pivot_row]);
      if (sign != nullptr) *sign = -*sign;
    }
    const double inv_pivot = 1.0 / lu(k, k);
    const double* rk = lu.row_ptr(k);
    for (std::size_t r = k + 1; r < n; ++r) {
      double* rr = lu.row_ptr(r);
      const double m = rr[k] * inv_pivot;
      rr[k] = m;
      if (m == 0.0) continue;  // eucon-lint: allow(float-equality)
      eliminate_row(rr, rk, m, k + 1, n);
    }
  }
  return invertible;
}

}  // namespace

Lu::Lu(const Matrix& a) : n_(a.rows()), lu_(a), piv_(n_) {
  EUCON_REQUIRE(a.rows() == a.cols(), "LU requires a square matrix");
  EUCON_CHECK_FINITE_MAT("Lu::Lu input", a);
  invertible_ = lu_factor(lu_, piv_.data(), &sign_);
}

bool Lu::factor_into(Matrix& a, std::vector<std::size_t>& piv) {
  EUCON_REQUIRE(a.rows() == a.cols(), "LU requires a square matrix");
  EUCON_REQUIRE(piv.size() >= a.rows(), "factor_into pivot buffer too small");
  EUCON_CHECK_FINITE_MAT("Lu::factor_into input", a);
  return lu_factor(a, piv.data(), nullptr);
}

void Lu::solve_into(const Matrix& lu, const std::vector<std::size_t>& piv,
                    const Vector& b, Vector& x) {
  const std::size_t n = lu.rows();
  EUCON_REQUIRE(lu.cols() == n && b.size() == n && piv.size() >= n,
                "LU solve_into size mismatch");
  // Steady-state no-op: callers reuse `x` across solves.
  x.data().resize(n);  // eucon-lint: allow(allocation-in-realtime)
  // Forward substitution with permuted rhs (L has unit diagonal).
  for (std::size_t i = 0; i < n; ++i) {
    const double* row = lu.row_ptr(i);
    double acc = b[piv[i]];
    for (std::size_t j = 0; j < i; ++j) acc -= row[j] * x[j];
    x[i] = acc;
  }
  // Back substitution.
  for (std::size_t ii = n; ii-- > 0;) {
    const double* row = lu.row_ptr(ii);
    double acc = x[ii];
    for (std::size_t j = ii + 1; j < n; ++j) acc -= row[j] * x[j];
    x[ii] = acc / row[ii];
  }
  EUCON_CHECK_FINITE_VEC("Lu::solve_into result", x);
}

double Lu::determinant() const {
  double det = sign_;
  for (std::size_t i = 0; i < n_; ++i) det *= lu_(i, i);
  return det;
}

Vector Lu::solve(const Vector& b) const {
  EUCON_REQUIRE(b.size() == n_, "LU solve size mismatch");
  if (!invertible_) EUCON_FAIL("Lu::solve: singular matrix");
  Vector x(n_);
  solve_into(lu_, piv_, b, x);
  return x;
}

Matrix Lu::solve(const Matrix& b) const {
  EUCON_REQUIRE(b.rows() == n_, "LU solve size mismatch");
  Matrix x(n_, b.cols());
  for (std::size_t c = 0; c < b.cols(); ++c) x.set_col(c, solve(b.col(c)));
  return x;
}

Matrix Lu::inverse() const { return solve(Matrix::identity(n_)); }

Vector solve(const Matrix& a, const Vector& b) { return Lu(a).solve(b); }
Matrix inverse(const Matrix& a) { return Lu(a).inverse(); }

std::size_t rank(const Matrix& a, double tol) {
  Matrix m = a;
  const std::size_t rows = m.rows(), cols = m.cols();
  double scale = 0.0;
  for (std::size_t r = 0; r < rows; ++r)
    for (std::size_t c = 0; c < cols; ++c)
      scale = std::max(scale, std::abs(m(r, c)));
  if (scale == 0.0) return 0;  // eucon-lint: allow(float-equality)
  const double threshold = tol * scale;

  std::size_t rank_count = 0;
  std::size_t pivot_row = 0;
  for (std::size_t col = 0; col < cols && pivot_row < rows; ++col) {
    // Largest magnitude in this column at/below pivot_row.
    std::size_t best = pivot_row;
    for (std::size_t r = pivot_row + 1; r < rows; ++r)
      if (std::abs(m(r, col)) > std::abs(m(best, col))) best = r;
    if (std::abs(m(best, col)) <= threshold) continue;
    if (best != pivot_row)
      for (std::size_t c = col; c < cols; ++c)
        std::swap(m(pivot_row, c), m(best, c));
    const double inv = 1.0 / m(pivot_row, col);
    for (std::size_t r = pivot_row + 1; r < rows; ++r) {
      const double factor = m(r, col) * inv;
      if (factor == 0.0) continue;  // eucon-lint: allow(float-equality)
      for (std::size_t c = col; c < cols; ++c)
        m(r, c) -= factor * m(pivot_row, c);
    }
    ++pivot_row;
    ++rank_count;
  }
  return rank_count;
}

}  // namespace eucon::linalg
