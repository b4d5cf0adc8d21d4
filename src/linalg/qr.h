// Householder QR factorization and least-squares solves.
#pragma once

#include <cstddef>
#include <vector>

#include "common/annotations.h"
#include "linalg/matrix.h"
#include "linalg/vector.h"

namespace eucon::linalg {

// QR of an m×n matrix with m >= n (tall or square).
class Qr {
 public:
  explicit Qr(const Matrix& a);

  // True when R has no (numerically) zero diagonal entry, i.e. A has full
  // column rank.
  bool full_rank() const { return full_rank_; }

  // Minimizes ||A x - b||_2. Throws std::runtime_error when rank deficient.
  Vector solve_least_squares(const Vector& b) const;

  // Allocation-free variant for per-period callers: `y` is caller-owned
  // scratch (resized on first use, steady-state no-op after) and `x`
  // receives the solution. Aliasing b/y/x is not allowed.
  void solve_least_squares_into(const Vector& b, Vector& y,
                                Vector& x) const EUCON_REALTIME;

  // The upper-triangular factor (n×n, zero below the diagonal).
  const Matrix& r() const { return r_; }
  // Applies Q^T to a vector of length m.
  Vector qt_times(const Vector& b) const;
  // In-place Q^T b into caller-owned `y` (resized to length m on first use).
  void qt_times_into(const Vector& b, Vector& y) const EUCON_REALTIME;

 private:
  std::size_t m_, n_;
  // Row k holds Householder vector k in columns k..m-1, so applying Q^T
  // walks each vector contiguously (columns < k are unused).
  Matrix v_;
  Matrix r_;                  // R, row-major, zero below the diagonal
  std::vector<double> beta_;  // Householder scalars (0 for skipped columns)
  bool full_rank_ = true;
};

// One-shot least squares.
Vector least_squares(const Matrix& a, const Vector& b);

}  // namespace eucon::linalg
