#include "qp/active_set.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "linalg/lu.h"

namespace eucon::qp {
namespace {

using linalg::Matrix;
using linalg::Vector;

TEST(QpTest, UnconstrainedQuadratic) {
  // min 0.5 x'Hx + f'x with H = diag(2, 4), f = (-2, -8) -> x = (1, 2).
  Matrix h{{2.0, 0.0}, {0.0, 4.0}};
  Vector f{-2.0, -8.0};
  const Result r = solve_qp(h, f, Matrix(0, 2), Vector(0));
  ASSERT_EQ(r.status, Status::kOptimal);
  EXPECT_NEAR(r.x[0], 1.0, 1e-7);
  EXPECT_NEAR(r.x[1], 2.0, 1e-7);
}

TEST(QpTest, ActiveBoundConstraint) {
  // min (x-2)^2 s.t. x <= 1 -> x = 1.
  Matrix h{{2.0}};
  Vector f{-4.0};
  Matrix a{{1.0}};
  Vector b{1.0};
  const Result r = solve_qp(h, f, a, b);
  ASSERT_EQ(r.status, Status::kOptimal);
  EXPECT_NEAR(r.x[0], 1.0, 1e-7);
}

TEST(QpTest, InactiveConstraintIgnored) {
  // min (x-2)^2 s.t. x <= 10 -> unconstrained optimum 2.
  Matrix h{{2.0}};
  Vector f{-4.0};
  const Result r = solve_qp(h, f, Matrix{{1.0}}, Vector{10.0});
  ASSERT_EQ(r.status, Status::kOptimal);
  EXPECT_NEAR(r.x[0], 2.0, 1e-7);
}

TEST(QpTest, TwoDimensionalCorner) {
  // min ||x - (3,3)||^2 s.t. x1 <= 1, x2 <= 2 -> x = (1, 2), both active.
  Matrix h{{2.0, 0.0}, {0.0, 2.0}};
  Vector f{-6.0, -6.0};
  Matrix a{{1.0, 0.0}, {0.0, 1.0}};
  Vector b{1.0, 2.0};
  const Result r = solve_qp(h, f, a, b);
  ASSERT_EQ(r.status, Status::kOptimal);
  EXPECT_NEAR(r.x[0], 1.0, 1e-7);
  EXPECT_NEAR(r.x[1], 2.0, 1e-7);
}

TEST(QpTest, DiagonalConstraintProjection) {
  // min ||x||^2 s.t. -(x1 + x2) <= -2  (i.e. x1 + x2 >= 2) -> x = (1, 1).
  Matrix h{{2.0, 0.0}, {0.0, 2.0}};
  Vector f{0.0, 0.0};
  Matrix a{{-1.0, -1.0}};
  Vector b{-2.0};
  const Result r = solve_qp(h, f, a, b);
  ASSERT_EQ(r.status, Status::kOptimal);
  EXPECT_NEAR(r.x[0], 1.0, 1e-6);
  EXPECT_NEAR(r.x[1], 1.0, 1e-6);
}

TEST(QpTest, InfeasibleDetected) {
  // x <= 0 and -x <= -1 (x >= 1) cannot both hold.
  Matrix h{{2.0}};
  Vector f{0.0};
  Matrix a{{1.0}, {-1.0}};
  Vector b{0.0, -1.0};
  const Result r = solve_qp(h, f, a, b);
  EXPECT_EQ(r.status, Status::kInfeasible);
}

// With H = I and f = 0 the solver returns the minimum-norm feasible point,
// which is how a caller finds a point of {x : A x <= b}.
TEST(QpTest, FindFeasiblePointSatisfiesConstraints) {
  Matrix a{{1.0, 1.0}, {-1.0, 0.0}, {0.0, -1.0}};  // x+y <= 4, x,y >= 0
  Vector b{4.0, 0.0, 0.0};
  const Result r = solve_qp(Matrix::identity(2), Vector(2), a, b);
  ASSERT_EQ(r.status, Status::kOptimal);
  EXPECT_LE(max_violation(a, b, r.x), 1e-6);
  // x = 0 is feasible, so it is the minimum-norm point.
  EXPECT_NEAR(r.x[0], 0.0, 1e-12);
  EXPECT_NEAR(r.x[1], 0.0, 1e-12);
}

TEST(QpTest, FindFeasiblePointWithShiftedBox) {
  // 2 <= x <= 3 (0 is infeasible; the solver must move).
  Matrix a{{1.0}, {-1.0}};
  Vector b{3.0, -2.0};
  const Result r = solve_qp(Matrix::identity(1), Vector(1), a, b);
  ASSERT_EQ(r.status, Status::kOptimal);
  EXPECT_LE(max_violation(a, b, r.x), 1e-6);
  EXPECT_NEAR(r.x[0], 2.0, 1e-9);
}

TEST(QpTest, RedundantConstraintsHandled) {
  // Duplicate rows must not wedge the working set.
  Matrix h{{2.0, 0.0}, {0.0, 2.0}};
  Vector f{-6.0, -6.0};
  Matrix a{{1.0, 0.0}, {1.0, 0.0}, {0.0, 1.0}};
  Vector b{1.0, 1.0, 1.0};
  const Result r = solve_qp(h, f, a, b);
  ASSERT_EQ(r.status, Status::kOptimal);
  EXPECT_NEAR(r.x[0], 1.0, 1e-6);
  EXPECT_NEAR(r.x[1], 1.0, 1e-6);
}

// Property sweep: random box-constrained quadratics have the closed-form
// solution clamp(unconstrained optimum); verify against it, and verify the
// KKT conditions directly.
class QpRandomBox : public ::testing::TestWithParam<int> {};

TEST_P(QpRandomBox, MatchesClampedUnconstrainedOptimum) {
  const int seed = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed));
  const std::size_t n = 1 + static_cast<std::size_t>(seed % 6);

  // Diagonal H keeps the clamp formula exact.
  Matrix h(n, n);
  Vector f(n);
  Vector lo(n), hi(n);
  for (std::size_t i = 0; i < n; ++i) {
    h(i, i) = rng.uniform(0.5, 4.0);
    f[i] = rng.uniform(-5.0, 5.0);
    lo[i] = rng.uniform(-2.0, 0.0);
    hi[i] = rng.uniform(0.5, 2.0);
  }
  Matrix a(2 * n, n);
  Vector b(2 * n);
  for (std::size_t i = 0; i < n; ++i) {
    a(i, i) = 1.0;
    b[i] = hi[i];
    a(n + i, i) = -1.0;
    b[n + i] = -lo[i];
  }
  const Result r = solve_qp(h, f, a, b);
  ASSERT_EQ(r.status, Status::kOptimal) << "seed=" << seed;
  for (std::size_t i = 0; i < n; ++i) {
    const double unconstrained = -f[i] / h(i, i);
    const double expected = std::clamp(unconstrained, lo[i], hi[i]);
    EXPECT_NEAR(r.x[i], expected, 1e-6) << "seed=" << seed << " i=" << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, QpRandomBox, ::testing::Range(1, 33));

// Random dense QPs checked against projected-gradient descent (slow,
// independent reference).
class QpRandomDense : public ::testing::TestWithParam<int> {};

TEST_P(QpRandomDense, ObjectiveNoWorseThanProjectedGradientReference) {
  const int seed = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed) * 77 + 5);
  const std::size_t n = 2 + static_cast<std::size_t>(seed % 4);

  // SPD H = B'B + I.
  Matrix bmat(n, n);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < n; ++c) bmat(r, c) = rng.uniform(-1.0, 1.0);
  Matrix h = linalg::gram(bmat);
  for (std::size_t i = 0; i < n; ++i) h(i, i) += 1.0;
  Vector f(n);
  for (std::size_t i = 0; i < n; ++i) f[i] = rng.uniform(-2.0, 2.0);

  // Box [-1, 1]^n.
  Matrix a(2 * n, n);
  Vector b(2 * n, 1.0);
  for (std::size_t i = 0; i < n; ++i) {
    a(i, i) = 1.0;
    a(n + i, i) = -1.0;
  }

  const Result r = solve_qp(h, f, a, b);
  ASSERT_EQ(r.status, Status::kOptimal);

  // Projected gradient reference from several random starts.
  auto objective = [&](const Vector& x) {
    return 0.5 * x.dot(h * x) + f.dot(x);
  };
  double best_ref = 1e100;
  for (int start = 0; start < 3; ++start) {
    Vector x(n);
    for (std::size_t i = 0; i < n; ++i) x[i] = rng.uniform(-1.0, 1.0);
    const double step = 0.45 / (1.0 + h.norm_inf());
    for (int it = 0; it < 4000; ++it) {
      const Vector g = h * x + f;
      for (std::size_t i = 0; i < n; ++i)
        x[i] = std::clamp(x[i] - step * g[i], -1.0, 1.0);
    }
    best_ref = std::min(best_ref, objective(x));
  }
  EXPECT_LE(objective(r.x), best_ref + 1e-5) << "seed=" << seed;
  EXPECT_LE(max_violation(a, b, r.x), 1e-8);
}

INSTANTIATE_TEST_SUITE_P(Seeds, QpRandomDense, ::testing::Range(1, 25));

}  // namespace
}  // namespace eucon::qp
