// LU factorization with partial pivoting, for square systems.
#pragma once

#include <cstddef>
#include <vector>

#include "common/annotations.h"
#include "linalg/matrix.h"
#include "linalg/vector.h"

namespace eucon::linalg {

class Lu {
 public:
  // Factors a square matrix. Throws std::invalid_argument if not square.
  explicit Lu(const Matrix& a);

  // True when no pivot was (numerically) zero.
  bool invertible() const { return invertible_; }
  double determinant() const;

  // Solves A x = b. Throws std::runtime_error if the matrix is singular.
  Vector solve(const Vector& b) const;
  Matrix solve(const Matrix& b) const;

  Matrix inverse() const;

  // In-place variants for preallocated buffers.
  //
  // factor_into overwrites `a` with the packed L (unit diagonal) / U factors
  // and records the row permutation in the first a.rows() entries of `piv`
  // (which the caller must have sized at least that large). Returns false
  // when a pivot is (numerically) zero; the factors are then unusable for
  // solve_into. Performs no heap allocation.
  static bool factor_into(Matrix& a, std::vector<std::size_t>& piv)
      EUCON_REALTIME;

  // Solves (LU) x = b from factor_into's output (which must have returned
  // true). `x` is resized in place — a steady-state no-op when the caller
  // reuses it — and must not alias `b`.
  static void solve_into(const Matrix& lu, const std::vector<std::size_t>& piv,
                         const Vector& b, Vector& x) EUCON_REALTIME;

 private:
  std::size_t n_;
  Matrix lu_;                     // packed L (unit diagonal) and U
  std::vector<std::size_t> piv_;  // row permutation
  int sign_ = 1;
  bool invertible_ = true;
};

// One-shot helpers.
Vector solve(const Matrix& a, const Vector& b);
Matrix inverse(const Matrix& a);

// Numerical rank by Gaussian elimination with partial pivoting on any
// (rectangular) matrix; `tol` is relative to the largest entry.
std::size_t rank(const Matrix& a, double tol = 1e-10);

}  // namespace eucon::linalg
