// Independent oracle for the active-set solver: for small problems,
// enumerate EVERY subset of constraints as a candidate active set, solve
// the corresponding equality-constrained problem in closed form, keep the
// feasible KKT points, and take the best. The solver must match, and must
// report kInfeasible exactly when no subset yields a feasible point.
#include <gtest/gtest.h>

#include <cmath>
#include <optional>
#include <ostream>
#include <vector>

#include "common/rng.h"
#include "linalg/lu.h"
#include "qp/active_set.h"

namespace eucon::qp {
namespace {

using linalg::Lu;
using linalg::Matrix;
using linalg::Vector;

double objective(const Matrix& h, const Vector& f, const Vector& x) {
  return 0.5 * x.dot(h * x) + f.dot(x);
}

// Brute-force optimum by active-set enumeration. Returns nullopt when the
// problem is infeasible (no subset yields a feasible KKT point and no
// feasible point exists at all).
std::optional<Vector> brute_force(const Matrix& h, const Vector& f,
                                  const Matrix& a, const Vector& b) {
  const std::size_t n = f.size();
  const std::size_t m = a.rows();
  std::optional<Vector> best;
  double best_obj = 1e300;

  for (std::size_t mask = 0; mask < (std::size_t{1} << m); ++mask) {
    std::vector<std::size_t> active;
    for (std::size_t i = 0; i < m; ++i)
      if (mask & (std::size_t{1} << i)) active.push_back(i);
    if (active.size() > n) continue;

    // KKT system for the candidate active set.
    const std::size_t w = active.size();
    Matrix kkt(n + w, n + w);
    kkt.set_block(0, 0, h);
    Vector rhs(n + w);
    for (std::size_t j = 0; j < n; ++j) rhs[j] = -f[j];
    for (std::size_t k = 0; k < w; ++k) {
      for (std::size_t j = 0; j < n; ++j) {
        kkt(n + k, j) = a(active[k], j);
        kkt(j, n + k) = a(active[k], j);
      }
      rhs[n + k] = b[active[k]];
    }
    Lu lu(kkt);
    if (!lu.invertible()) continue;
    const Vector sol = lu.solve(rhs);
    Vector x(n);
    for (std::size_t j = 0; j < n; ++j) x[j] = sol[j];

    // Feasible w.r.t. all constraints?
    if (max_violation(a, b, x) > 1e-8) continue;
    // Multipliers of active constraints non-negative? (KKT optimality —
    // without it the point is just a feasible stationary candidate; we
    // still keep it since we take the global best over all subsets.)
    const double obj = objective(h, f, x);
    if (obj < best_obj - 1e-12) {
      best_obj = obj;
      best = x;
    }
  }
  return best;
}

// A seed and the lower end of the b_i draw: b_i >= 0.05 keeps x = 0
// feasible; b_i ~ U(-1, 1.5) makes x = 0 infeasible on many instances and
// some instances infeasible outright.
struct OracleCase {
  int seed;
  double b_lo;
};

// CTest names each case by its printed parameter: print the seed alone.
void PrintTo(const OracleCase& c, std::ostream* os) { *os << c.seed; }

std::vector<OracleCase> seeds(int first, int last, double b_lo) {
  std::vector<OracleCase> out;
  for (int seed = first; seed <= last; ++seed) out.push_back({seed, b_lo});
  return out;
}

class QpOracle : public ::testing::TestWithParam<OracleCase> {};

TEST_P(QpOracle, SolverMatchesExhaustiveEnumeration) {
  const int seed = GetParam().seed;
  const double b_lo = GetParam().b_lo;
  Rng rng(static_cast<std::uint64_t>(seed) * 913 + 19);
  const std::size_t n = 2 + static_cast<std::size_t>(seed % 2);  // 2..3 vars
  const std::size_t m = 3 + static_cast<std::size_t>(seed % 4);  // 3..6 rows

  // SPD H, random f, random constraints around a guaranteed-feasible box.
  Matrix base(n, n);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < n; ++c) base(r, c) = rng.uniform(-1.0, 1.0);
  Matrix h = linalg::gram(base);
  for (std::size_t i = 0; i < n; ++i) h(i, i) += 0.5;
  Vector f(n);
  for (std::size_t i = 0; i < n; ++i) f[i] = rng.uniform(-2.0, 2.0);

  Matrix a(m, n);
  Vector b(m);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) a(i, j) = rng.uniform(-1.0, 1.0);
    b[i] = rng.uniform(b_lo, 1.5);
  }

  const Result res = solve_qp(h, f, a, b);
  const auto oracle = brute_force(h, f, a, b);
  if (!oracle.has_value()) {
    EXPECT_EQ(res.status, Status::kInfeasible) << "seed " << seed;
    return;
  }
  ASSERT_EQ(res.status, Status::kOptimal) << "seed " << seed;

  // Objectives must agree tightly (minimizers may differ only when the
  // optimum is non-unique, which SPD H prevents).
  EXPECT_NEAR(objective(h, f, res.x), objective(h, f, *oracle), 1e-6)
      << "seed " << seed;
  for (std::size_t j = 0; j < n; ++j)
    EXPECT_NEAR(res.x[j], (*oracle)[j], 1e-4) << "seed " << seed << " x" << j;
}

INSTANTIATE_TEST_SUITE_P(Seeds, QpOracle,
                         ::testing::ValuesIn(seeds(1, 40, 0.05)));
INSTANTIATE_TEST_SUITE_P(InfeasibleStart, QpOracle,
                         ::testing::ValuesIn(seeds(41, 280, -1.0)));

}  // namespace
}  // namespace eucon::qp
