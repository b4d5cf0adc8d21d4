#include "linalg/cholesky.h"

#include <cmath>

#include "common/check.h"

namespace eucon::linalg {

Cholesky::Cholesky(const Matrix& a) : n_(a.rows()), l_(a) {
  EUCON_REQUIRE(a.rows() == a.cols(), "Cholesky requires a square matrix");
  EUCON_CHECK_FINITE_MAT("Cholesky::Cholesky input", a);
  spd_ = factor_into(l_);
  for (std::size_t i = 0; i < n_; ++i)
    for (std::size_t j = i + 1; j < n_; ++j) l_(i, j) = 0.0;
}

bool Cholesky::factor_into(Matrix& a) {
  const std::size_t n = a.rows();
  EUCON_REQUIRE(a.cols() == n, "Cholesky requires a square matrix");
  // Column by column; a(i, j) is read once, just before L(i, j) replaces it.
  for (std::size_t j = 0; j < n; ++j) {
    double d = a(j, j);
    for (std::size_t k = 0; k < j; ++k) d -= a(j, k) * a(j, k);
    if (d <= 0.0 || !std::isfinite(d)) return false;
    a(j, j) = std::sqrt(d);
    for (std::size_t i = j + 1; i < n; ++i) {
      double s = a(i, j);
      for (std::size_t k = 0; k < j; ++k) s -= a(i, k) * a(j, k);
      a(i, j) = s / a(j, j);
    }
  }
  return true;
}

Vector Cholesky::solve(const Vector& b) const {
  EUCON_REQUIRE(b.size() == n_, "Cholesky solve size mismatch");
  if (!spd_) EUCON_FAIL("Cholesky::solve: matrix not SPD");
  Vector y(n_);
  for (std::size_t i = 0; i < n_; ++i) {
    double acc = b[i];
    for (std::size_t j = 0; j < i; ++j) acc -= l_(i, j) * y[j];
    y[i] = acc / l_(i, i);
  }
  Vector x(n_);
  for (std::size_t ii = n_; ii-- > 0;) {
    double acc = y[ii];
    for (std::size_t j = ii + 1; j < n_; ++j) acc -= l_(j, ii) * x[j];
    x[ii] = acc / l_(ii, ii);
  }
  EUCON_CHECK_FINITE_VEC("Cholesky::solve result", x);
  return x;
}

Matrix Cholesky::l() const { return l_; }

}  // namespace eucon::linalg
