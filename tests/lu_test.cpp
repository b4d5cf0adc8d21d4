#include "linalg/lu.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <utility>
#include <vector>

#include "common/rng.h"

namespace eucon::linalg {
namespace {

Matrix random_matrix(std::size_t n, Rng& rng) {
  Matrix m(n, n);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < n; ++c) m(r, c) = rng.uniform(-5.0, 5.0);
  return m;
}

// The scalar elimination the library used before its row update was
// vectorized: same pivoting, same tolerance, same operation order.
bool reference_factor(Matrix& lu, std::vector<std::size_t>& piv) {
  const std::size_t n = lu.rows();
  for (std::size_t i = 0; i < n; ++i) piv[i] = i;
  double scale = lu.norm_inf();
  if (scale == 0.0) scale = 1.0;  // eucon-lint: allow(float-equality)
  bool invertible = true;
  for (std::size_t k = 0; k < n; ++k) {
    std::size_t pivot_row = k;
    double pivot_mag = std::abs(lu(k, k));
    for (std::size_t r = k + 1; r < n; ++r) {
      if (std::abs(lu(r, k)) > pivot_mag) {
        pivot_mag = std::abs(lu(r, k));
        pivot_row = r;
      }
    }
    if (pivot_mag <= 1e-13 * scale) {
      invertible = false;
      continue;
    }
    if (pivot_row != k) {
      for (std::size_t c = 0; c < n; ++c)
        std::swap(lu(k, c), lu(pivot_row, c));
      std::swap(piv[k], piv[pivot_row]);
    }
    const double inv_pivot = 1.0 / lu(k, k);
    for (std::size_t r = k + 1; r < n; ++r) {
      const double m = lu(r, k) * inv_pivot;
      lu(r, k) = m;
      if (m == 0.0) continue;  // eucon-lint: allow(float-equality)
      for (std::size_t c = k + 1; c < n; ++c) lu(r, c) -= m * lu(k, c);
    }
  }
  return invertible;
}

// Every n from 1 to 33 covers odd and even tails of the two-wide row
// update; random entries force row swaps, and zeroed entries below the
// diagonal give zero multipliers (rows the update skips).
TEST(LuTest, EliminationMatchesScalarReferenceBitForBit) {
  Rng rng(2026);
  for (std::size_t n = 1; n <= 33; ++n) {
    for (int trial = 0; trial < 4; ++trial) {
      Matrix a = random_matrix(n, rng);
      for (std::size_t r = 1; r < n; ++r)
        if (rng.next_double() < 0.3) a(r, 0) = 0.0;
      if (trial == 3 && n > 2) a.set_col(1, a.col(0));  // singular
      Matrix fast = a;
      Matrix ref = a;
      std::vector<std::size_t> fast_piv(n), ref_piv(n);
      const bool fast_ok = Lu::factor_into(fast, fast_piv);
      const bool ref_ok = reference_factor(ref, ref_piv);
      ASSERT_EQ(fast_ok, ref_ok) << "n = " << n;
      ASSERT_EQ(fast_piv, ref_piv) << "n = " << n;
      ASSERT_EQ(std::memcmp(fast.row_ptr(0), ref.row_ptr(0),
                            n * n * sizeof(double)),
                0)
          << "n = " << n << ", trial " << trial;
    }
  }
}

TEST(LuTest, SolvesKnownSystem) {
  Matrix a{{2.0, 1.0}, {1.0, 3.0}};
  Vector b{3.0, 5.0};
  const Vector x = Lu(a).solve(b);
  // 2x + y = 3, x + 3y = 5 -> x = 4/5, y = 7/5
  EXPECT_NEAR(x[0], 0.8, 1e-12);
  EXPECT_NEAR(x[1], 1.4, 1e-12);
}

TEST(LuTest, DeterminantOfKnownMatrix) {
  Matrix a{{1.0, 2.0}, {3.0, 4.0}};
  EXPECT_NEAR(Lu(a).determinant(), -2.0, 1e-12);
}

TEST(LuTest, DeterminantOfIdentity) {
  EXPECT_NEAR(Lu(Matrix::identity(5)).determinant(), 1.0, 1e-12);
}

TEST(LuTest, SingularMatrixDetected) {
  Matrix a{{1.0, 2.0}, {2.0, 4.0}};
  Lu lu(a);
  EXPECT_FALSE(lu.invertible());
  EXPECT_THROW(lu.solve(Vector{1.0, 1.0}), std::runtime_error);
}

TEST(LuTest, NonSquareThrows) {
  EXPECT_THROW(Lu(Matrix(2, 3)), std::invalid_argument);
}

TEST(LuTest, InverseTimesOriginalIsIdentity) {
  Rng rng(7);
  const Matrix a = random_matrix(6, rng);
  const Matrix inv = Lu(a).inverse();
  EXPECT_TRUE(approx_equal(a * inv, Matrix::identity(6), 1e-9));
  EXPECT_TRUE(approx_equal(inv * a, Matrix::identity(6), 1e-9));
}

TEST(LuTest, PivotingHandlesZeroLeadingEntry) {
  Matrix a{{0.0, 1.0}, {1.0, 0.0}};
  const Vector x = Lu(a).solve(Vector{2.0, 3.0});
  EXPECT_NEAR(x[0], 3.0, 1e-12);
  EXPECT_NEAR(x[1], 2.0, 1e-12);
}

// Property sweep: solving recovers a planted solution on random systems of
// growing size.
class LuRandomSolve : public ::testing::TestWithParam<int> {};

TEST_P(LuRandomSolve, RecoversPlantedSolution) {
  const auto n = static_cast<std::size_t>(GetParam());
  Rng rng(1234 + GetParam());
  const Matrix a = random_matrix(n, rng);
  Vector x_true(n);
  for (std::size_t i = 0; i < n; ++i) x_true[i] = rng.uniform(-2.0, 2.0);
  const Vector b = a * x_true;
  const Vector x = Lu(a).solve(b);
  EXPECT_TRUE(approx_equal(x, x_true, 1e-7 * (1.0 + x_true.norm_inf())))
      << "n=" << n;
}

INSTANTIATE_TEST_SUITE_P(Sizes, LuRandomSolve,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

// KKT-style symmetric indefinite systems (what the QP solver feeds LU).
TEST(LuTest, SolvesSaddlePointSystem) {
  // [H A'; A 0] with H = I, A = [1 1].
  Matrix kkt{{1.0, 0.0, 1.0}, {0.0, 1.0, 1.0}, {1.0, 1.0, 0.0}};
  Vector rhs{1.0, 2.0, 0.0};
  const Vector sol = Lu(kkt).solve(rhs);
  // p minimizes ||p - [1,2]|| with p1 + p2 = 0 -> p = [-0.5, 0.5], lambda = 1.5
  EXPECT_NEAR(sol[0], -0.5, 1e-12);
  EXPECT_NEAR(sol[1], 0.5, 1e-12);
  EXPECT_NEAR(sol[2], 1.5, 1e-12);
}

}  // namespace
}  // namespace eucon::linalg
