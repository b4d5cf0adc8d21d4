#include "qp/lsqlin.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "linalg/qr.h"

namespace eucon::qp {
namespace {

using linalg::Matrix;
using linalg::Vector;

TEST(LsqlinTest, UnconstrainedMatchesQrLeastSquares) {
  Matrix c{{1.0, 0.0}, {1.0, 1.0}, {1.0, 2.0}, {1.0, 3.0}};
  Vector d{1.0, 2.9, 5.1, 7.0};
  LsqlinProblem prob{c, d, Matrix(0, 2), Vector(0), {}, {}};
  const LsqlinResult res = lsqlin(prob);
  ASSERT_EQ(res.status, Status::kOptimal);
  const Vector ref = linalg::least_squares(c, d);
  EXPECT_NEAR(res.x[0], ref[0], 1e-6);
  EXPECT_NEAR(res.x[1], ref[1], 1e-6);
}

TEST(LsqlinTest, BoundsClampSolution) {
  // Fit single scalar a to minimize ||a*1 - d||, optimum mean(d)=2, ub=1.5.
  Matrix c{{1.0}, {1.0}, {1.0}};
  Vector d{1.0, 2.0, 3.0};
  LsqlinProblem prob;
  prob.c = c;
  prob.d = d;
  prob.a = Matrix(0, 1);
  prob.b = Vector(0);
  prob.lb = Vector{0.0};
  prob.ub = Vector{1.5};
  const LsqlinResult res = lsqlin(prob);
  ASSERT_EQ(res.status, Status::kOptimal);
  EXPECT_NEAR(res.x[0], 1.5, 1e-7);
}

TEST(LsqlinTest, GeneralInequality) {
  // min ||x - (2, 2)||^2 s.t. x1 + x2 <= 2 -> x = (1, 1).
  Matrix c = Matrix::identity(2);
  Vector d{2.0, 2.0};
  LsqlinProblem prob;
  prob.c = c;
  prob.d = d;
  prob.a = Matrix{{1.0, 1.0}};
  prob.b = Vector{2.0};
  const LsqlinResult res = lsqlin(prob);
  ASSERT_EQ(res.status, Status::kOptimal);
  EXPECT_NEAR(res.x[0], 1.0, 1e-6);
  EXPECT_NEAR(res.x[1], 1.0, 1e-6);
  EXPECT_NEAR(res.residual_norm, std::sqrt(2.0), 1e-6);
}

TEST(LsqlinTest, ResidualNormReported) {
  Matrix c = Matrix::identity(2);
  Vector d{1.0, 1.0};
  LsqlinProblem prob{c, d, Matrix(0, 2), Vector(0), {}, {}};
  const LsqlinResult res = lsqlin(prob);
  ASSERT_EQ(res.status, Status::kOptimal);
  EXPECT_NEAR(res.residual_norm, 0.0, 1e-6);
}

TEST(LsqlinTest, InfeasibleBoxDetected) {
  Matrix c = Matrix::identity(1);
  Vector d{0.0};
  LsqlinProblem prob;
  prob.c = c;
  prob.d = d;
  prob.a = Matrix(0, 1);
  prob.b = Vector(0);
  prob.lb = Vector{2.0};
  prob.ub = Vector{1.0};  // empty box
  const LsqlinResult res = lsqlin(prob);
  EXPECT_EQ(res.status, Status::kInfeasible);
}

TEST(LsqlinTest, SizeMismatchThrows) {
  LsqlinProblem prob;
  prob.c = Matrix(3, 2);
  prob.d = Vector(2);  // wrong length
  EXPECT_THROW(lsqlin(prob), std::invalid_argument);
}

// --- LsqlinSolver (cached factorization) ------------------------------------

struct SolverFixture {
  Matrix c;
  Matrix a;
  Vector b;

  // MPC-shaped: tall random C, rate bounds encoded as A = [I; -I].
  explicit SolverFixture(std::size_t n, std::uint64_t seed,
                         double bound = 0.5) {
    Rng rng(seed);
    c = Matrix(2 * n, n);
    for (std::size_t r = 0; r < c.rows(); ++r)
      for (std::size_t cc = 0; cc < n; ++cc) c(r, cc) = rng.uniform(-1.0, 1.0);
    a = Matrix(2 * n, n);
    b = Vector(2 * n);
    for (std::size_t j = 0; j < n; ++j) {
      a(j, j) = 1.0;
      b[j] = bound;
      a(n + j, j) = -1.0;
      b[n + j] = bound;
    }
  }

  Vector target(std::uint64_t seed, double scale) const {
    Rng rng(seed);
    Vector d(c.rows());
    for (std::size_t r = 0; r < d.size(); ++r)
      d[r] = rng.uniform(-scale, scale);
    return d;
  }
};

TEST(LsqlinSolverTest, MatchesOneShotLsqlinOnActiveConstraints) {
  const SolverFixture fx(4, 11);
  // Large targets push the minimizer against the bounds, so the active-set
  // path (not just the fast path) is compared.
  for (std::uint64_t s = 1; s <= 8; ++s) {
    const Vector d = fx.target(s, 3.0);
    LsqlinProblem prob{fx.c, d, fx.a, fx.b, {}, {}};
    const LsqlinResult one = lsqlin(prob);
    LsqlinSolver solver(fx.c);
    const LsqlinResult cached = solver.solve(d, fx.a, fx.b);
    ASSERT_EQ(one.status, Status::kOptimal);
    ASSERT_EQ(cached.status, Status::kOptimal);
    for (std::size_t i = 0; i < cached.x.size(); ++i)
      EXPECT_NEAR(cached.x[i], one.x[i], 1e-6) << "target seed " << s;
    EXPECT_NEAR(cached.residual_norm, one.residual_norm, 1e-6);
  }
}

TEST(LsqlinSolverTest, FastPathWhenUnconstrainedMinimizerFeasible) {
  const SolverFixture fx(4, 5, /*bound=*/100.0);  // bounds far away
  LsqlinSolver solver(fx.c);
  const LsqlinResult res = solver.solve(fx.target(1, 0.5), fx.a, fx.b);
  ASSERT_EQ(res.status, Status::kOptimal);
  // The cached-QR minimizer satisfied every constraint: zero QP iterations.
  EXPECT_EQ(res.iterations, 0);
}

TEST(LsqlinSolverTest, ResetRefactorizesForNewC) {
  const SolverFixture fx1(4, 31);
  const SolverFixture fx2(4, 32);
  LsqlinSolver solver(fx1.c);
  (void)solver.solve(fx1.target(1, 3.0), fx1.a, fx1.b);
  solver.reset(fx2.c);
  const Vector d = fx2.target(2, 3.0);
  const LsqlinResult cached = solver.solve(d, fx2.a, fx2.b);
  LsqlinProblem prob{fx2.c, d, fx2.a, fx2.b, {}, {}};
  const LsqlinResult one = lsqlin(prob);
  ASSERT_EQ(cached.status, Status::kOptimal);
  for (std::size_t i = 0; i < cached.x.size(); ++i)
    EXPECT_NEAR(cached.x[i], one.x[i], 1e-6);
}

TEST(LsqlinSolverTest, RejectsMismatchedSizes) {
  const SolverFixture fx(3, 41);
  LsqlinSolver solver(fx.c);
  EXPECT_THROW(solver.solve(Vector(2), fx.a, fx.b), std::invalid_argument);
  EXPECT_THROW(solver.solve(fx.target(1, 1.0), Matrix(2, 5), Vector(2)),
               std::invalid_argument);
}

// --- The Cholesky route (C rank deficient or wider than tall) --------------

// solve_qp on H = 2 C'C and f = -2 C'd, formed as the solver forms them.
Result reference_qp(const Matrix& c, const Vector& d, const Matrix& a,
                    const Vector& b) {
  Matrix h(c.cols(), c.cols());
  linalg::gram_into(c, h);
  h *= 2.0;
  Vector f;
  linalg::transpose_times_into(c, d, f);
  f *= -2.0;
  return solve_qp(h, f, a, b);
}

void expect_matches_reference(const LsqlinResult& res, const Result& ref) {
  ASSERT_EQ(res.status, ref.status);
  ASSERT_EQ(res.x.size(), ref.x.size());
  for (std::size_t i = 0; i < res.x.size(); ++i)
    EXPECT_NEAR(res.x[i], ref.x[i], 1e-12 * (1.0 + std::abs(ref.x[i])));
  EXPECT_EQ(res.active, ref.active);
  EXPECT_EQ(res.iterations, ref.iterations);
}

TEST(LsqlinTest, WideCTakesCholeskyRoute) {
  // min (x1 + x2 - 2)^2 on 0 <= x <= 0.5: C'C is singular, the unconstrained
  // (minimum-norm) point (1, 1) violates both upper bounds, and the optimum
  // is the corner (0.5, 0.5) with the two upper-bound rows active.
  const Matrix c{{1.0, 1.0}};
  LsqlinProblem prob{c, Vector{2.0}, Matrix(0, 2), Vector(0),
                     Vector{0.0, 0.0}, Vector{0.5, 0.5}};
  const LsqlinResult res = lsqlin(prob);
  ASSERT_EQ(res.status, Status::kOptimal);
  EXPECT_NEAR(res.x[0], 0.5, 1e-12);
  EXPECT_NEAR(res.x[1], 0.5, 1e-12);
  EXPECT_EQ(res.active, (std::vector<std::size_t>{0, 1}));
  EXPECT_NEAR(res.residual_norm, 1.0, 1e-12);

  // The box folded as lsqlin() folds it: upper rows first, then lower.
  const Matrix a{{1.0, 0.0}, {0.0, 1.0}, {-1.0, 0.0}, {0.0, -1.0}};
  const Vector b{0.5, 0.5, 0.0, 0.0};
  expect_matches_reference(res, reference_qp(c, prob.d, a, b));

  // A target inside the box: the minimum-norm point (0.3, 0.3) is iteration
  // 0's answer. The Cholesky of the regularized singular H resolves the
  // null-space direction x1 - x2 only to about 1e-7, while the fitted sum
  // is off by just the regularization's pull toward 0 (about 1.5e-10).
  prob.d = Vector{0.6};
  const LsqlinResult inside = lsqlin(prob);
  ASSERT_EQ(inside.status, Status::kOptimal);
  EXPECT_TRUE(inside.fast_path);
  EXPECT_NEAR(inside.x[0], 0.3, 1e-6);
  EXPECT_NEAR(inside.x[1], 0.3, 1e-6);
  EXPECT_NEAR(inside.x[0] + inside.x[1], 0.6, 1e-9);
  expect_matches_reference(inside, reference_qp(c, prob.d, a, b));
}

TEST(LsqlinSolverTest, RankDeficientTallCTakesCholeskyRoute) {
  // Rank 1: every row is a multiple of (1, 2), so C x = d asks only for
  // x1 + 2 x2 = 3. With x2 <= 1 the least-norm-regularized optimum is
  // (1, 1), at zero residual, with that row active.
  const Matrix c{{1.0, 2.0}, {2.0, 4.0}, {1.0, 2.0}};
  ASSERT_FALSE(linalg::Qr(c).full_rank());
  const Vector d{3.0, 6.0, 3.0};
  const Matrix a{{0.0, 1.0}};
  const Vector b{1.0};
  LsqlinSolver solver(c);
  const LsqlinResult res = solver.solve(d, a, b);
  ASSERT_EQ(res.status, Status::kOptimal);
  EXPECT_NEAR(res.x[0], 1.0, 1e-6);
  EXPECT_NEAR(res.x[1], 1.0, 1e-12);
  EXPECT_EQ(res.active, (std::vector<std::size_t>{0}));
  EXPECT_NEAR(res.residual_norm, 0.0, 1e-6);
  expect_matches_reference(res, reference_qp(c, d, a, b));

  // Random rank-deficient tall C (its last column repeats its first) in a
  // box small enough to bind.
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    Rng rng(seed);
    Matrix cr(8, 4);
    for (std::size_t r = 0; r < 8; ++r) {
      for (std::size_t k = 0; k < 3; ++k) cr(r, k) = rng.uniform(-1.0, 1.0);
      cr(r, 3) = cr(r, 0);
    }
    Vector dr(8);
    for (std::size_t r = 0; r < 8; ++r) dr[r] = rng.uniform(-3.0, 3.0);
    Matrix box(8, 4);
    Vector bound(8, 0.5);
    for (std::size_t j = 0; j < 4; ++j) {
      box(j, j) = 1.0;
      box(4 + j, j) = -1.0;
    }
    LsqlinSolver rank_deficient(cr);
    const LsqlinResult got = rank_deficient.solve(dr, box, bound);
    SCOPED_TRACE(seed);
    expect_matches_reference(got, reference_qp(cr, dr, box, bound));
    EXPECT_LE(max_violation(box, bound, got.x), 1e-9);
  }
}

// Property sweep: on random feasible problems the KKT conditions must hold:
// the (negative) gradient at the optimum lies in the cone of active
// constraint normals. We verify via a projection test: moving along any
// feasible direction must not decrease the objective (first order).
class LsqlinRandom : public ::testing::TestWithParam<int> {};

TEST_P(LsqlinRandom, FirstOrderOptimalityOnRandomProblems) {
  const int seed = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed) * 131 + 7);
  const std::size_t n = 2 + static_cast<std::size_t>(seed % 4);
  const std::size_t rows = n + 2;

  Matrix c(rows, n);
  Vector d(rows);
  for (std::size_t r = 0; r < rows; ++r) {
    d[r] = rng.uniform(-2.0, 2.0);
    for (std::size_t cc = 0; cc < n; ++cc) c(r, cc) = rng.uniform(-1.0, 1.0);
  }
  LsqlinProblem prob;
  prob.c = c;
  prob.d = d;
  prob.a = Matrix(0, n);
  prob.b = Vector(0);
  prob.lb = Vector(n, -0.6);
  prob.ub = Vector(n, 0.6);

  const LsqlinResult res = lsqlin(prob);
  ASSERT_EQ(res.status, Status::kOptimal) << "seed=" << seed;

  // Sample random feasible perturbations; none may improve the objective.
  auto objective = [&](const Vector& x) {
    const Vector r = c * x - d;
    return r.dot(r);
  };
  const double f0 = objective(res.x);
  for (int trial = 0; trial < 50; ++trial) {
    Vector x = res.x;
    for (std::size_t i = 0; i < n; ++i)
      x[i] = std::clamp(x[i] + rng.uniform(-0.05, 0.05), -0.6, 0.6);
    EXPECT_GE(objective(x), f0 - 1e-7) << "seed=" << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LsqlinRandom, ::testing::Range(1, 21));

}  // namespace
}  // namespace eucon::qp
