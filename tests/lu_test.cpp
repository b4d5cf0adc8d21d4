#include "linalg/lu.h"

#include <gtest/gtest.h>

#include "common/rng.h"

namespace eucon::linalg {
namespace {

Matrix random_matrix(std::size_t n, Rng& rng) {
  Matrix m(n, n);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < n; ++c) m(r, c) = rng.uniform(-5.0, 5.0);
  return m;
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
