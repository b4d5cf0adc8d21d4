// LU factorization with partial pivoting, for square systems.
#pragma once

#include <cstddef>
#include <vector>

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
