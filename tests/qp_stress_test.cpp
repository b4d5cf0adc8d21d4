// Degenerate-QP stress suite: the recovery branches of the dual active-set
// solver (dependent rows, dual-only steps, zero-room vertices) and the
// workspace contracts.
#include "qp/active_set.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

namespace eucon::qp {
namespace {

using linalg::Matrix;
using linalg::Vector;

TEST(QpStressTest, DependentWorkingSetRowsRecoveredByDrop) {
  // min ||x - (2,2)||^2 s.t. x1 + x2 <= 2, stated twice. Once the first copy
  // is active the second is satisfied (and dependent), so it must not enter
  // the active set: the optimum (1,1) has exactly one active row.
  Matrix h{{2.0, 0.0}, {0.0, 2.0}};
  Vector f{-4.0, -4.0};
  Matrix a{{1.0, 1.0}, {1.0, 1.0}};
  Vector b{2.0, 2.0};
  const Result r = solve_qp(h, f, a, b);
  ASSERT_EQ(r.status, Status::kOptimal);
  EXPECT_NEAR(r.x[0], 1.0, 1e-6);
  EXPECT_NEAR(r.x[1], 1.0, 1e-6);
  EXPECT_EQ(r.active.size(), 1u);
}

TEST(QpStressTest, ZeroStepBlockingConstraintActivatesWithoutMoving) {
  // min ||x - (3,3)||^2 s.t. x1 <= 1, x2 <= 1, 0.1 x1 + 0.2 x2 <= 0.28.
  // The dual method adds rows 0 and 1 (most violated first) and reaches the
  // vertex (1,1), where row 2 is still violated but its normal lies in the
  // span of the two active ones (z = 0): the only step is dual. It drops
  // row 1 while x stays put, then a primal step along x2 adds row 2.
  Matrix h{{2.0, 0.0}, {0.0, 2.0}};
  Vector f{-6.0, -6.0};
  Matrix a{{1.0, 0.0}, {0.0, 1.0}, {0.1, 0.2}};
  Vector b{1.0, 1.0, 0.28};

  // Stopped right after the dual-only drop: x is still the vertex, and only
  // row 0 is active.
  Options three;
  three.max_iterations = 3;
  const Result cut = solve_qp(h, f, a, b, three);
  ASSERT_EQ(cut.status, Status::kMaxIterations);
  EXPECT_EQ(cut.iterations, 3);
  EXPECT_NEAR(cut.x[0], 1.0, 1e-12);
  EXPECT_NEAR(cut.x[1], 1.0, 1e-12);
  EXPECT_EQ(cut.active, (std::vector<std::size_t>{0}));

  // Add, add, drop, add.
  const Result r = solve_qp(h, f, a, b);
  ASSERT_EQ(r.status, Status::kOptimal);
  EXPECT_EQ(r.iterations, 4);
  EXPECT_NEAR(r.x[0], 1.0, 1e-8);
  EXPECT_NEAR(r.x[1], 0.9, 1e-8);
  EXPECT_EQ(r.active, (std::vector<std::size_t>{0, 2}));
}

TEST(QpStressTest, ZeroStepCycleStillTerminates) {
  // Two constraints meet at the vertex (1,1); the unconstrained optimum
  // (3,3) violates both equally. The solver activates them one per
  // iteration and must not cycle.
  Matrix h{{2.0, 0.0}, {0.0, 2.0}};
  Vector f{-6.0, -6.0};
  Matrix a{{1.0, 0.0}, {0.0, 1.0}};
  Vector b{1.0, 1.0};
  const Result r = solve_qp(h, f, a, b);
  ASSERT_EQ(r.status, Status::kOptimal);
  EXPECT_NEAR(r.x[0], 1.0, 1e-8);
  EXPECT_NEAR(r.x[1], 1.0, 1e-8);
  EXPECT_LE(r.iterations, 10);
}

TEST(QpStressTest, WorkspaceReusedAcrossShapes) {
  // One workspace, three different problem shapes within its reserve
  // bounds: results must match fresh one-shot solves.
  QpWorkspace ws;
  DualFactor factor;
  ws.reserve(4, 8);
  Result out;
  for (std::size_t n = 2; n <= 4; ++n) {
    Matrix h(n, n);
    Vector f(n);
    for (std::size_t i = 0; i < n; ++i) {
      h(i, i) = 2.0;
      f[i] = -2.0 * static_cast<double>(i + 1);
    }
    Matrix a(2 * n, n);
    Vector b(2 * n, 1.0);
    for (std::size_t i = 0; i < n; ++i) {
      a(i, i) = 1.0;
      a(n + i, i) = -1.0;
    }
    solve_qp_into(h, f, a, b, {}, ws, factor, out);
    const Result fresh = solve_qp(h, f, a, b);
    ASSERT_EQ(out.status, Status::kOptimal) << n;
    ASSERT_EQ(fresh.status, Status::kOptimal) << n;
    ASSERT_EQ(out.x.size(), n);
    for (std::size_t i = 0; i < n; ++i)
      EXPECT_NEAR(out.x[i], fresh.x[i], 1e-9) << n << "/" << i;
    EXPECT_EQ(out.iterations, fresh.iterations) << n;
  }
}

TEST(QpStressTest, WorkspaceTooSmallIsRefused) {
  QpWorkspace ws;
  DualFactor factor;
  ws.reserve(1, 1);
  Matrix h{{2.0, 0.0}, {0.0, 2.0}};
  Vector f{-1.0, -1.0};
  Matrix a{{1.0, 0.0}};
  Vector b{1.0};
  Result out;
  EXPECT_THROW(solve_qp_into(h, f, a, b, {}, ws, factor, out),
               std::invalid_argument);
}

}  // namespace
}  // namespace eucon::qp
