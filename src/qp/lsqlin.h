// Constrained linear least squares, MATLAB-lsqlin style:
//
//   min_x ||C x - d||_2^2   subject to   A x <= b,  lb <= x <= ub.
//
// This is the solver the EUCON controller calls every sampling period (the
// paper uses MATLAB's lsqlin; this is our from-scratch replacement built on
// the dual active-set QP).
#pragma once

#include <optional>

#include "common/annotations.h"
#include "linalg/qr.h"
#include "qp/active_set.h"

namespace eucon::qp {

struct LsqlinProblem {
  linalg::Matrix c;
  linalg::Vector d;
  linalg::Matrix a;   // may have 0 rows
  linalg::Vector b;
  linalg::Vector lb;  // empty = unbounded below
  linalg::Vector ub;  // empty = unbounded above
};

struct LsqlinResult {
  linalg::Vector x;
  Status status = Status::kMaxIterations;
  int iterations = 0;  // dual adds plus drops, warm drops included
  // ||C x - d||_2 at the solution, from solve() and lsqlin(); solve_into
  // leaves it as it was, since no per-period caller reads it.
  double residual_norm = 0.0;
  // True when the unconstrained minimizer (the dual method's iteration 0)
  // was already feasible, so the factor was not touched. A resumed solve
  // that needs no step also makes 0 iterations, but is not a fast path.
  bool fast_path = false;
  // Rows active at x, in ascending row order.
  std::vector<std::size_t> active;
};

// Solves the problem: one LsqlinSolver solve with the box rows folded into
// A.
LsqlinResult lsqlin(const LsqlinProblem& prob, const Options& opts = {});

// Repeated-solve variant for the controller hot path: min ||C x - d||_2^2
// s.t. A x <= b, where C is fixed across many solves but d/A/b change every
// sampling period. Box constraints are not folded here; callers encode them
// as rows of A (the MPC constraint builder already does).
//
// The constructor factors C once by Householder QR. The QR gives both the
// unconstrained minimizer of each solve and the dual method's starting
// factor: H = 2C'C = (sqrt(2) R)'(sqrt(2) R), so J0 = (sqrt(2) R)^{-1}.
// When C is rank deficient (or wider than tall), J0 comes from the
// Cholesky factor of H + kRegularization·I instead; an MPC's rate-penalty
// rows give C full column rank, so the controller never takes that route.
//
// Per solve, the dual method starts at the unconstrained minimizer; when
// that point is feasible it is returned with 0 iterations (the common
// steady-state case once utilization has converged), and the factor is not
// touched. Otherwise the solve resumes from the factor and active set the
// solver carried out of its last solve over the same rows (same
// SparseMatrix revision and row range; see qp/active_set.h), or starts
// from J0 when there is none. Dense rows carry no revision, so solves over
// a Matrix always start from J0. reset() forgets the carried state.
class LsqlinSolver {
 public:
  // No C yet: reset() before the first solve.
  LsqlinSolver() = default;
  explicit LsqlinSolver(linalg::Matrix c);

  // Re-factorizes for a new C (model / allocation / gain change) and
  // forgets the carried active set.
  void reset(linalg::Matrix c);

  const linalg::Matrix& c() const { return c_; }
  // The state carried into the next solve: J', R and the active rows.
  const DualFactor& dual_factor() const { return factor_; }

  LsqlinResult solve(const linalg::Vector& d, const RowsView& a,
                     const linalg::Vector& b, const Options& opts = {});

  // Allocation-free variant for per-period callers: writes into a
  // caller-owned result whose x and active set are reused across solves.
  // The per-solve scratch lives in `ws`, which the caller owns and must
  // have reserved for (c.cols(), a.rows()); the carried factor is the
  // solver's own, so solvers may share one workspace.
  void solve_into(const linalg::Vector& d, const RowsView& a,
                  const linalg::Vector& b, const Options& opts,
                  QpWorkspace& ws, LsqlinResult& out) EUCON_REALTIME;

 private:
  // Builds qr_ and j0t_ for c_, and sizes factor_ with no active rows.
  void factorize();

  linalg::Matrix c_;
  std::optional<linalg::Qr> qr_;  // engaged when C has full column rank
  // J0' = L^{-1} for H = 2 C'C (+ kRegularization·I) = LL'.
  linalg::Matrix j0t_;
  DualFactor factor_;  // carried from each solve to the next
  linalg::Vector f_;  // scratch: -2 C'd (rank-deficient route)
  linalg::Vector y_;  // scratch: Q'd, or J0'f
  QpWorkspace ws_;  // workspace for the solve() convenience overload
};

}  // namespace eucon::qp
