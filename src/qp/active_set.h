// Convex quadratic programming via the Goldfarb–Idnani dual active-set
// method (Goldfarb & Idnani, Math. Programming 27 (1983); Nocedal & Wright,
// ch. 16).
//
// Solves   min_x  0.5 x'Hx + f'x   subject to   A x <= b
// with H symmetric positive definite (H = LL').
//
// The method starts at the unconstrained minimizer x = -H^{-1} f, which is
// dual feasible with no active rows, and stays dual feasible: each
// iteration picks the most violated row and moves x and the multipliers
// until that row is satisfied (a full step, which adds it to the active
// set) or an active multiplier reaches zero (a partial step, which drops
// that row). No feasible start and no phase 1 are needed, and
// infeasibility shows up as a violated row that no primal or dual step
// can reduce.
//
// The state is J = L^{-T} Q and an upper-triangular R with J'N = [R; 0]
// for the active normals N. Both are updated by Givens rotations as rows
// enter and leave, so one iteration costs O(n^2), and the only
// factorization is the one that produced J0 = L^{-T}, made once per
// Hessian (LsqlinSolver derives it from its cached QR of C).
//
// Contract: a kOptimal x is primal feasible within kConstraintTol. A dual
// method is primal infeasible until it ends, so a kMaxIterations or
// kInfeasible x satisfies only the rows reported active.
//
// All per-iteration state lives in a caller-owned QpWorkspace, so a solve
// within its reserved shape performs no heap allocation.
#pragma once

#include <cstddef>
#include <vector>

#include "common/annotations.h"
#include "linalg/matrix.h"
#include "linalg/vector.h"

namespace eucon::qp {

struct Options {
  // Cap on adds plus drops.
  int max_iterations = 1000;
};

// Feasibility tolerance on A x <= b: a row is violated when
// a_i x - b_i > kConstraintTol.
inline constexpr double kConstraintTol = 1e-9;

// Added to diag(H) before every Cholesky factorization (solve_qp, and
// LsqlinSolver when C is rank deficient or wider than tall), so that a
// singular positive semidefinite H still factors.
inline constexpr double kRegularization = 1e-9;

enum class Status {
  kOptimal,        // KKT-optimal point found
  kInfeasible,     // a violated row admits neither a primal nor a dual step
  kMaxIterations,  // iteration limit; x satisfies only its active rows
};

struct Result {
  linalg::Vector x;
  Status status = Status::kMaxIterations;
  // Adds plus drops; 0 when the unconstrained minimizer is feasible.
  int iterations = 0;
  double objective = 0.0;  // 0.5 x'Hx + f'x at the returned x
  // Rows active at the returned x, in ascending row order.
  std::vector<std::size_t> active;
};

// Persistent scratch for the dual solver. reserve() sizes every buffer for
// the largest shape seen and is growth-only; call it at setup or model
// rebuild, off the realtime path.
//
// The members are solver internals: owned by the solve, valid only during
// it, and not part of the public surface.
struct QpWorkspace {
  QpWorkspace() = default;

  // Sizes the workspace for up to `vars` variables and `cons` rows.
  void reserve(std::size_t vars, std::size_t cons);

  std::size_t max_vars() const { return max_vars_; }
  std::size_t max_cons() const { return max_cons_; }

  std::size_t max_vars_ = 0;
  std::size_t max_cons_ = 0;

  linalg::Matrix jt;  // J' (row k is column k of J), n×n live
  linalg::Matrix r;   // R, upper triangular, live q×q of n×n
  linalg::Vector d;   // J' a_p for the entering row p
  linalg::Vector rd;  // R^{-1} d_1, the dual step direction
  linalg::Vector u;   // active multipliers, then the entering row's
  std::vector<std::size_t> active;      // active rows, in entry order
  std::vector<unsigned char> in_active;  // per-row membership flags
};

// J0' = L^{-1} for the lower-triangular factor L of H = LL' (only the lower
// triangle of `l` is read). `jt` is reshaped to n×n, which allocates only
// beyond its capacity; its strict upper triangle is zero.
void inverse_factor_into(const linalg::Matrix& l, linalg::Matrix& jt);

// J0' = L^{-1} for H + kRegularization·I = LL'. `h` holds H on entry (only
// its lower triangle is read) and L on exit. Throws std::invalid_argument
// when H + kRegularization·I is not positive definite.
void regularized_inverse_factor_into(linalg::Matrix& h, linalg::Matrix& jt);

// The unconstrained minimizer x = -H^{-1} f = -J0 (J0' f) for a lower-
// triangular J0' (as inverse_factor_into leaves it); `tmp` is scratch.
void unconstrained_minimizer_into(const linalg::Matrix& j0t,
                                  const linalg::Vector& f, linalg::Vector& tmp,
                                  linalg::Vector& x) EUCON_REALTIME;

// The dual core. On entry `x` is the unconstrained minimizer and `j0t` is
// J0' = L^{-1} (it may be ws.jt itself); on exit `x` is the solution or the
// last iterate and `active` lists the active rows in ascending order.
// Writes the adds plus drops to `iterations`. `ws` must have been reserved
// for (x.size(), a.rows()). A may have zero rows.
Status solve_dual_into(const linalg::Matrix& j0t, const linalg::Matrix& a,
                       const linalg::Vector& b, const Options& opts,
                       QpWorkspace& ws, linalg::Vector& x, int& iterations,
                       std::vector<std::size_t>& active) EUCON_REALTIME;

// Solves the QP into caller-owned storage: factors H + kRegularization·I by
// Cholesky into the workspace, then runs the dual core. `ws` must have been
// reserved for at least (f.size(), a.rows()); `out` is reused across calls,
// so repeated solves of same-shaped problems allocate nothing. Throws
// std::invalid_argument when H + kRegularization·I is not positive
// definite.
void solve_qp_into(const linalg::Matrix& h, const linalg::Vector& f,
                   const linalg::Matrix& a, const linalg::Vector& b,
                   const Options& opts, QpWorkspace& ws, Result& out)
    EUCON_REALTIME;

// One-shot convenience wrapper: allocates a workspace per call.
Result solve_qp(const linalg::Matrix& h, const linalg::Vector& f,
                const linalg::Matrix& a, const linalg::Vector& b,
                const Options& opts = {});

// Maximum violation max_i (a_i x - b_i), or 0 when A has no rows.
double max_violation(const linalg::Matrix& a, const linalg::Vector& b,
                     const linalg::Vector& x);

}  // namespace eucon::qp
