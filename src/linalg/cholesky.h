// Cholesky (LL^T) factorization of symmetric positive-definite matrices.
#pragma once

#include <cstddef>

#include "common/annotations.h"
#include "linalg/matrix.h"
#include "linalg/vector.h"

namespace eucon::linalg {

class Cholesky {
 public:
  // Factors a symmetric matrix; only the lower triangle is read.
  explicit Cholesky(const Matrix& a);

  // True when the matrix was numerically positive definite.
  bool positive_definite() const { return spd_; }

  // Solves A x = b. Throws std::runtime_error when not SPD.
  Vector solve(const Vector& b) const;

  Matrix l() const;

  // In-place variant for preallocated paths (the QP's regularized
  // Hessian): overwrites the lower triangle of the square matrix `a` with
  // L and leaves its strict upper triangle as it was. Returns false when
  // `a` is not numerically positive definite; L is then unusable.
  // Performs no heap allocation.
  static bool factor_into(Matrix& a) EUCON_REALTIME;

 private:
  std::size_t n_;
  Matrix l_;
  bool spd_ = true;
};

}  // namespace eucon::linalg
