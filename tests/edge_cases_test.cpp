// Edge-case hardening across the numerical substrate.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "linalg/cholesky.h"
#include "linalg/eig.h"
#include "linalg/lu.h"
#include "linalg/qr.h"
#include "qp/lsqlin.h"

namespace eucon {
namespace {

using linalg::Matrix;
using linalg::Vector;

TEST(LinalgEdgeTest, OneByOneSystems) {
  EXPECT_DOUBLE_EQ(linalg::Lu(Matrix{{4.0}}).solve(Vector{8.0})[0], 2.0);
  EXPECT_FALSE(linalg::Lu(Matrix{{0.0}}).invertible());
  EXPECT_DOUBLE_EQ(linalg::least_squares(Matrix{{2.0}}, Vector{6.0})[0], 3.0);
  linalg::Cholesky chol(Matrix{{9.0}});
  ASSERT_TRUE(chol.positive_definite());
  EXPECT_DOUBLE_EQ(chol.solve(Vector{3.0})[0], 1.0 / 3.0);
}

TEST(LinalgEdgeTest, EmptyMatrixOperations) {
  const Matrix empty;
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(Matrix::identity(0).rows(), 0u);
  EXPECT_EQ(linalg::eigenvalues(Matrix(0, 0)).size(), 0u);
}

TEST(LinalgEdgeTest, SingleColumnLeastSquares) {
  // Projection onto one column: x = (a'b)/(a'a).
  Matrix a{{1.0}, {2.0}, {2.0}};
  Vector b{3.0, 1.0, 2.0};
  const Vector x = linalg::least_squares(a, b);
  EXPECT_NEAR(x[0], (3.0 + 2.0 + 4.0) / 9.0, 1e-12);
}

TEST(LinalgEdgeTest, SymmetricMatricesHaveRealEigenvalues) {
  Rng rng(21);
  for (int trial = 0; trial < 10; ++trial) {
    const std::size_t n = 2 + static_cast<std::size_t>(trial % 5);
    Matrix a(n, n);
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = i; j < n; ++j) {
        a(i, j) = rng.uniform(-2.0, 2.0);
        a(j, i) = a(i, j);
      }
    for (const auto& ev : linalg::eigenvalues(a))
      EXPECT_NEAR(ev.imag(), 0.0, 1e-7) << "trial " << trial;
  }
}

TEST(LinalgEdgeTest, NearSingularStillSolvesAccurately) {
  // Hilbert 4x4: condition ~1.5e4 — well within double precision.
  Matrix h(4, 4);
  for (std::size_t i = 0; i < 4; ++i)
    for (std::size_t j = 0; j < 4; ++j)
      h(i, j) = 1.0 / static_cast<double>(i + j + 1);
  Vector x_true{1.0, -1.0, 2.0, 0.5};
  const Vector x = linalg::Lu(h).solve(h * x_true);
  EXPECT_TRUE(linalg::approx_equal(x, x_true, 1e-7));
}

TEST(QpEdgeTest, IterationLimitReportsStatus) {
  qp::Options opts;
  opts.max_iterations = 1;
  Matrix h{{2.0, 0.0}, {0.0, 2.0}};
  Vector f{-6.0, -6.0};
  Matrix a{{1.0, 0.0}, {0.0, 1.0}};
  Vector b{1.0, 1.0};
  const qp::Result r = qp::solve_qp(h, f, a, b, opts);
  // One iteration cannot finish this (needs to add two constraints).
  EXPECT_EQ(r.status, qp::Status::kMaxIterations);
  // A dual iterate is primal feasible only on its active rows.
  ASSERT_FALSE(r.active.empty());
  for (const std::size_t i : r.active)
    EXPECT_LE(linalg::row_dot(a, i, r.x) - b[i], 1e-9) << "row " << i;
}

TEST(QpEdgeTest, SingularHessianHandledByRegularization) {
  // H = 0 (pure linear objective) on a box: optimum at a vertex.
  Matrix h(2, 2);
  Vector f{-1.0, -1.0};
  Matrix a{{1.0, 0.0}, {0.0, 1.0}, {-1.0, 0.0}, {0.0, -1.0}};
  Vector b{1.0, 1.0, 0.0, 0.0};
  const qp::Result r = qp::solve_qp(h, f, a, b);
  ASSERT_EQ(r.status, qp::Status::kOptimal);
  EXPECT_NEAR(r.x[0], 1.0, 1e-5);
  EXPECT_NEAR(r.x[1], 1.0, 1e-5);
}

TEST(QpEdgeTest, EmptyConstraintSystem) {
  // The minimum-norm point of an empty system (H = I, f = 0) is 0.
  const qp::Result r =
      qp::solve_qp(Matrix::identity(3), Vector(3), Matrix(0, 3), Vector(0));
  ASSERT_EQ(r.status, qp::Status::kOptimal);
  EXPECT_EQ(r.x.size(), 3u);
  EXPECT_EQ(r.iterations, 0);
}

TEST(QpEdgeTest, TightEqualityLikeBox) {
  // lb == ub pins the variable exactly.
  qp::LsqlinProblem prob;
  prob.c = Matrix::identity(2);
  prob.d = Vector{5.0, 5.0};
  prob.a = Matrix(0, 2);
  prob.b = Vector(0);
  prob.lb = Vector{1.0, -3.0};
  prob.ub = Vector{1.0, 3.0};
  const auto res = qp::lsqlin(prob);
  ASSERT_EQ(res.status, qp::Status::kOptimal);
  EXPECT_NEAR(res.x[0], 1.0, 1e-7);
  EXPECT_NEAR(res.x[1], 3.0, 1e-7);
}

TEST(QpEdgeTest, MixedGeneralAndBoxConstraints) {
  // min ||x - (4,4)||^2, x1 + x2 <= 4, 0 <= x <= 3 -> x = (2, 2).
  qp::LsqlinProblem prob;
  prob.c = Matrix::identity(2);
  prob.d = Vector{4.0, 4.0};
  prob.a = Matrix{{1.0, 1.0}};
  prob.b = Vector{4.0};
  prob.lb = Vector{0.0, 0.0};
  prob.ub = Vector{3.0, 3.0};
  const auto res = qp::lsqlin(prob);
  ASSERT_EQ(res.status, qp::Status::kOptimal);
  EXPECT_NEAR(res.x[0], 2.0, 1e-6);
  EXPECT_NEAR(res.x[1], 2.0, 1e-6);
}

TEST(QpEdgeTest, LargeScaleRandomBoxStillOptimal) {
  Rng rng(33);
  const std::size_t n = 40;
  Matrix h(n, n);
  Vector f(n);
  for (std::size_t i = 0; i < n; ++i) {
    h(i, i) = rng.uniform(1.0, 3.0);
    f[i] = rng.uniform(-4.0, 4.0);
  }
  Matrix a(2 * n, n);
  Vector b(2 * n, 1.0);
  for (std::size_t i = 0; i < n; ++i) {
    a(i, i) = 1.0;
    a(n + i, i) = -1.0;
  }
  const qp::Result r = qp::solve_qp(h, f, a, b);
  ASSERT_EQ(r.status, qp::Status::kOptimal);
  for (std::size_t i = 0; i < n; ++i) {
    const double expected = std::clamp(-f[i] / h(i, i), -1.0, 1.0);
    EXPECT_NEAR(r.x[i], expected, 1e-6) << i;
  }
}

}  // namespace
}  // namespace eucon
