#include "linalg/qr.h"

#include <cmath>

#include "common/check.h"

namespace eucon::linalg {

namespace {
constexpr double kRankTol = 1e-12;
}

Qr::Qr(const Matrix& a)
    : m_(a.rows()), n_(a.cols()), v_(a.transposed()), r_(n_, n_),
      beta_(n_, 0.0) {
  EUCON_REQUIRE(m_ >= n_, "QR requires rows >= cols");
  EUCON_CHECK_FINITE_MAT("Qr::Qr input", a);
  double scale = a.frobenius_norm();
  if (scale == 0.0) scale = 1.0;  // eucon-lint: allow(float-equality)

  // v_ starts as A^T, so column k of A is the contiguous row k; every
  // operation below runs in the order of the column-wise textbook loop.
  for (std::size_t k = 0; k < n_; ++k) {
    // Householder reflection zeroing column k below the diagonal.
    double* vk = v_.row_ptr(k);
    double norm = 0.0;
    for (std::size_t i = k; i < m_; ++i) norm += vk[i] * vk[i];
    norm = std::sqrt(norm);
    if (norm <= kRankTol * scale) {
      full_rank_ = false;
      r_(k, k) = vk[k];
      continue;
    }
    const double alpha = vk[k] >= 0 ? -norm : norm;
    const double vkk = vk[k] - alpha;  // v = x - alpha*e1
    r_(k, k) = alpha;
    vk[k] = vkk;
    double vtv = vkk * vkk;
    for (std::size_t i = k + 1; i < m_; ++i) vtv += vk[i] * vk[i];
    if (vtv == 0.0) continue;  // eucon-lint: allow(float-equality)
    beta_[k] = 2.0 / vtv;

    // Apply H = I - beta v v^T to the trailing columns (rows of v_).
    for (std::size_t j = k + 1; j < n_; ++j) {
      double* vj = v_.row_ptr(j);
      double dot = vkk * vj[k];
      for (std::size_t i = k + 1; i < m_; ++i) dot += vk[i] * vj[i];
      const double s = beta_[k] * dot;
      vj[k] -= s * vkk;
      for (std::size_t i = k + 1; i < m_; ++i) vj[i] -= s * vk[i];
    }
  }
  // Entry k of column j > k is final once reflection k has run.
  for (std::size_t k = 0; k < n_; ++k)
    for (std::size_t j = k + 1; j < n_; ++j) r_(k, j) = v_(j, k);
}

Vector Qr::qt_times(const Vector& b) const {
  Vector y;
  qt_times_into(b, y);
  return y;
}

void Qr::qt_times_into(const Vector& b, Vector& y) const {
  EUCON_REQUIRE(b.size() == m_, "qt_times size mismatch");
  y.reshape(m_);  // steady-state no-op: callers reuse y
  for (std::size_t i = 0; i < m_; ++i) y[i] = b[i];
  for (std::size_t k = 0; k < n_; ++k) {
    if (beta_[k] == 0.0) continue;  // eucon-lint: allow(float-equality)
    const double* vk = v_.row_ptr(k);
    double dot = vk[k] * y[k];
    for (std::size_t i = k + 1; i < m_; ++i) dot += vk[i] * y[i];
    const double s = beta_[k] * dot;
    y[k] -= s * vk[k];
    for (std::size_t i = k + 1; i < m_; ++i) y[i] -= s * vk[i];
  }
}

Vector Qr::solve_least_squares(const Vector& b) const {
  Vector y, x;
  solve_least_squares_into(b, y, x);
  return x;
}

void Qr::solve_least_squares_into(const Vector& b, Vector& y, Vector& x) const {
  if (!full_rank_)
    EUCON_FAIL("Qr::solve_least_squares: rank-deficient matrix");
  qt_times_into(b, y);
  x.reshape(n_);  // steady-state no-op: callers reuse x
  for (std::size_t ii = n_; ii-- > 0;) {
    const double* ri = r_.row_ptr(ii);
    double acc = y[ii];
    for (std::size_t j = ii + 1; j < n_; ++j) acc -= ri[j] * x[j];
    x[ii] = acc / ri[ii];
  }
  EUCON_CHECK_FINITE_VEC("Qr::solve_least_squares result", x);
}

Vector least_squares(const Matrix& a, const Vector& b) {
  return Qr(a).solve_least_squares(b);
}

}  // namespace eucon::linalg
