#include "linalg/lu.h"

#include <cmath>

#include "common/check.h"

namespace eucon::linalg {

namespace {
// Relative threshold below which a pivot is treated as zero.
constexpr double kPivotTol = 1e-13;
}  // namespace

Lu::Lu(const Matrix& a) : n_(a.rows()), lu_(a), piv_(n_) {
  EUCON_REQUIRE(a.rows() == a.cols(), "LU requires a square matrix");
  EUCON_CHECK_FINITE_MAT("Lu::Lu input", a);
  for (std::size_t i = 0; i < n_; ++i) piv_[i] = i;

  double scale = lu_.norm_inf();
  if (scale == 0.0) scale = 1.0;  // eucon-lint: allow(float-equality)

  for (std::size_t k = 0; k < n_; ++k) {
    // Partial pivoting: largest magnitude in column k at/below the diagonal.
    std::size_t pivot_row = k;
    double pivot_mag = std::abs(lu_(k, k));
    for (std::size_t r = k + 1; r < n_; ++r) {
      const double mag = std::abs(lu_(r, k));
      if (mag > pivot_mag) {
        pivot_mag = mag;
        pivot_row = r;
      }
    }
    if (pivot_mag <= kPivotTol * scale) {
      // Leave the (near-)zero pivot and finish the elimination, so
      // determinant() stays meaningful; solves refuse.
      invertible_ = false;
      continue;
    }
    if (pivot_row != k) {
      double* rk = lu_.row_ptr(k);
      double* rp = lu_.row_ptr(pivot_row);
      for (std::size_t c = 0; c < n_; ++c) std::swap(rk[c], rp[c]);
      std::swap(piv_[k], piv_[pivot_row]);
      sign_ = -sign_;
    }
    const double inv_pivot = 1.0 / lu_(k, k);
    const double* rk = lu_.row_ptr(k);
    for (std::size_t r = k + 1; r < n_; ++r) {
      double* rr = lu_.row_ptr(r);
      const double m = rr[k] * inv_pivot;
      rr[k] = m;
      if (m == 0.0) continue;  // eucon-lint: allow(float-equality)
      for (std::size_t c = k + 1; c < n_; ++c) rr[c] -= m * rk[c];
    }
  }
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
  // Forward substitution with permuted rhs (L has unit diagonal).
  for (std::size_t i = 0; i < n_; ++i) {
    const double* row = lu_.row_ptr(i);
    double acc = b[piv_[i]];
    for (std::size_t j = 0; j < i; ++j) acc -= row[j] * x[j];
    x[i] = acc;
  }
  // Back substitution.
  for (std::size_t ii = n_; ii-- > 0;) {
    const double* row = lu_.row_ptr(ii);
    double acc = x[ii];
    for (std::size_t j = ii + 1; j < n_; ++j) acc -= row[j] * x[j];
    x[ii] = acc / row[ii];
  }
  EUCON_CHECK_FINITE_VEC("Lu::solve result", x);
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
