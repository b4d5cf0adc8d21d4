// Proves the allocation-free contract of the workspace QP path: after a
// warm-up solve has grown every buffer to its high-water mark, repeated
// solves through solve_qp_into / LsqlinSolver::solve_into — Cholesky, adds,
// partial and dual-only drops, resumes from the carried factor and their
// warm drops, the active-set report included — touch the heap exactly zero
// times.
//
// The proof instrument is a replacement global operator new in this TU
// (it governs the whole test binary) that bumps a counter while a test
// has counting switched on. Outside the counted regions it is a plain
// malloc shim, so gtest machinery is unaffected.
#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

#include <gtest/gtest.h>

#include "linalg/sparse.h"
#include "qp/active_set.h"
#include "qp/lsqlin.h"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::size_t> g_allocs{0};

void* counted_alloc(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed))
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (size == 0) size = 1;
  void* p = std::malloc(size);
  // Allocation failure in a unit test is unrecoverable; abort instead of
  // throwing so this TU stays clear of the raw-throw rule.
  if (p == nullptr) std::abort();
  return p;
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace eucon::qp {
namespace {

using linalg::Matrix;
using linalg::Vector;

struct CountScope {
  CountScope() {
    g_allocs.store(0);
    g_counting.store(true);
  }
  ~CountScope() { g_counting.store(false); }
  static std::size_t count() { return g_allocs.load(); }
};

// A box-constrained QP whose optimum pins several constraints, so every
// steady-state solve runs the dual loop rather than stopping at iteration 0.
struct DenseQpFixture {
  static constexpr std::size_t kN = 6;
  static constexpr std::size_t kM = 12;
  Matrix h = Matrix(kN, kN);
  Vector f = Vector(kN);
  Matrix a = Matrix(kM, kN);
  Vector b = Vector(kM);

  DenseQpFixture() {
    for (std::size_t i = 0; i < kN; ++i) {
      h(i, i) = 2.0 + 0.1 * static_cast<double>(i);
      f[i] = -4.0 * static_cast<double>(i + 1);
      a(i, i) = 1.0;
      b[i] = 1.0;
      a(kN + i, i) = -1.0;
      b[kN + i] = 1.0;
    }
  }
};

TEST(QpAllocTest, SolveQpIntoIsAllocationFreeAfterWarmup) {
  DenseQpFixture fx;
  QpWorkspace ws;
  DualFactor factor;
  ws.reserve(fx.kN, fx.kM);
  Result out;
  // Warm-up: grows out.x, out.active and every workspace buffer to
  // steady-state capacity. Two passes so the active-set report has already
  // seen its largest set.
  solve_qp_into(fx.h, fx.f, fx.a, fx.b, {}, ws, factor, out);
  ASSERT_EQ(out.status, Status::kOptimal);
  solve_qp_into(fx.h, fx.f, fx.a, fx.b, {}, ws, factor, out);
  ASSERT_EQ(out.status, Status::kOptimal);

  int optimal = 0;
  {
    const CountScope scope;
    for (int k = 0; k < 50; ++k) {
      // Perturb the gradient in place so each solve does real work (the
      // optimum moves), without touching the heap from the test side.
      fx.f[0] = -4.0 - 0.01 * static_cast<double>(k % 7);
      solve_qp_into(fx.h, fx.f, fx.a, fx.b, {}, ws, factor, out);
      if (out.status == Status::kOptimal) ++optimal;
    }
  }
  EXPECT_EQ(optimal, 50);
  EXPECT_EQ(CountScope::count(), 0u);
}

TEST(QpAllocTest, PartialAndDualOnlyStepsAreAllocationFreeAfterWarmup) {
  // min ||x - (3,3)||^2 over x1 <= 1, x2 <= 1 and 0.1 x1 + 0.2 x2 <= c:
  // the solver adds both bounds, meets the third row at the vertex (1,1)
  // with no primal direction left and drops x2 <= 1 on a dual-only step.
  // For c >= -0.1 it then adds the third row (4 iterations); below that,
  // x1 <= 1's multiplier reaches zero first, so a partial step drops it too
  // before the add (5 iterations).
  Matrix h{{2.0, 0.0}, {0.0, 2.0}};
  Vector f{-6.0, -6.0};
  Matrix a{{1.0, 0.0}, {0.0, 1.0}, {0.1, 0.2}};
  Vector b{1.0, 1.0, -0.3};
  QpWorkspace ws;
  DualFactor factor;
  ws.reserve(2, 3);
  Result out;
  // Warm-up over both regimes, so out.active has held two rows.
  solve_qp_into(h, f, a, b, {}, ws, factor, out);
  ASSERT_EQ(out.status, Status::kOptimal);
  ASSERT_EQ(out.iterations, 5);  // add, add, dual-only drop, partial drop, add
  b[2] = 0.28;
  solve_qp_into(h, f, a, b, {}, ws, factor, out);
  ASSERT_EQ(out.status, Status::kOptimal);
  ASSERT_EQ(out.iterations, 4);  // add, add, dual-only drop, add
  ASSERT_EQ(out.active.size(), 2u);

  int optimal = 0;
  int dual_only = 0;
  int partial = 0;
  {
    const CountScope scope;
    for (int k = 0; k < 50; ++k) {
      b[2] = -0.3 + 0.01 * static_cast<double>(k);  // -0.3 .. 0.19
      solve_qp_into(h, f, a, b, {}, ws, factor, out);
      if (out.status == Status::kOptimal) ++optimal;
      if (out.iterations == 4) ++dual_only;
      if (out.iterations == 5) ++partial;
    }
  }
  EXPECT_EQ(optimal, 50);
  EXPECT_GT(dual_only, 0);
  EXPECT_GT(partial, 0);
  EXPECT_EQ(dual_only + partial, 50);
  EXPECT_EQ(CountScope::count(), 0u);
}

TEST(QpAllocTest, LsqlinQpFallbackIsAllocationFreeAfterWarmup) {
  // The MPC-shaped call: LsqlinSolver::solve_into with a caller-owned
  // workspace, target far outside the box so the fast path always misses
  // and the QP fallback runs every period.
  const std::size_t n = 4;
  Matrix c(n, n);
  for (std::size_t i = 0; i < n; ++i) c(i, i) = 1.0;
  Vector d(n, 5.0);  // unconstrained minimizer x = d, far beyond the box
  Matrix a(2 * n, n);
  Vector b(2 * n, 1.0);
  for (std::size_t i = 0; i < n; ++i) {
    a(i, i) = 1.0;
    a(n + i, i) = -1.0;
  }

  LsqlinSolver solver(c);
  QpWorkspace ws;
  ws.reserve(c.cols(), a.rows());
  LsqlinResult out;
  solver.solve_into(d, a, b, {}, ws, out);
  ASSERT_EQ(out.status, Status::kOptimal);
  ASSERT_FALSE(out.fast_path);
  solver.solve_into(d, a, b, {}, ws, out);
  ASSERT_EQ(out.status, Status::kOptimal);

  int optimal = 0;
  int slow_path = 0;
  {
    const CountScope scope;
    for (int k = 0; k < 50; ++k) {
      d[0] = 5.0 + 0.01 * static_cast<double>(k % 5);
      solver.solve_into(d, a, b, {}, ws, out);
      if (out.status == Status::kOptimal) ++optimal;
      if (!out.fast_path) ++slow_path;
    }
  }
  EXPECT_EQ(optimal, 50);
  EXPECT_EQ(slow_path, 50);
  EXPECT_EQ(CountScope::count(), 0u);
}

TEST(QpAllocTest, ResumedLsqlinSolvesAreAllocationFreeAfterWarmup) {
  // LsqlinSolver over CSR rows carries its factor from solve to solve: min
  // ||x - d||^2 over the box |x_i| <= 1 and 0.1 x0 + 0.2 x1 <= 0.2, with d
  // cycling through targets whose optimal active sets overlap. Each solve
  // resumes from the last one's rows, drops the ones that left (warm drops)
  // and adds the ones that entered, some through partial steps.
  const std::size_t n = 4;
  Matrix c(n, n);
  for (std::size_t i = 0; i < n; ++i) c(i, i) = 1.0;
  linalg::SparseMatrix rows(n);
  Vector b(2 * n + 1, 1.0);
  for (const double sign : {1.0, -1.0}) {
    for (std::size_t i = 0; i < n; ++i) {
      rows.push_entry(i, sign);
      rows.end_row();
    }
  }
  rows.push_entry(0, 0.1);
  rows.push_entry(1, 0.2);
  rows.end_row();
  b[2 * n] = 0.2;
  const Vector targets[] = {
      {3.0, 3.0, 3.0, 3.0},  {3.0, 3.0, -3.0, 3.0}, {3.0, -3.0, -3.0, 3.0},
      {-3.0, 3.0, 3.0, 3.0}, {3.0, 3.0, 3.0, -3.0}, {0.5, 3.0, 3.0, 3.0},
  };

  const RowsView view(rows, 0, rows.rows());
  LsqlinSolver solver(c);
  QpWorkspace ws;
  ws.reserve(n, rows.rows());
  LsqlinResult out;
  for (int k = 0; k < 12; ++k)
    solver.solve_into(targets[k % 6], view, b, {}, ws, out);

  int optimal = 0;
  int resumed = 0;
  int iterations = 0;
  {
    const CountScope scope;
    for (int k = 0; k < 60; ++k) {
      if (solver.dual_factor().q > 0) ++resumed;
      solver.solve_into(targets[k % 6], view, b, {}, ws, out);
      if (out.status == Status::kOptimal) ++optimal;
      iterations += out.iterations;
    }
  }
  EXPECT_EQ(optimal, 60);
  EXPECT_EQ(resumed, 60);
  EXPECT_GT(iterations, 60);
  EXPECT_EQ(CountScope::count(), 0u);
}

}  // namespace
}  // namespace eucon::qp
