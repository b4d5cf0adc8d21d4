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
// The state survives the solve (DualFactor). When the next solve over the
// same rows finds its unconstrained minimizer x0 infeasible, it resumes
// from the previous active set N instead of from J0: with
// y = R^{-T}(N'x0 - b_N), the multipliers of the minimizer on N are
// lambda = R^{-1} y, and x = x0 - J_1 y (J_1 = J's first q columns). Rows
// with a negative multiplier are dropped first (warm drops), which
// restores dual feasibility, and the method continues from there. A period
// whose rate bounds stay pinned thus re-adds none of them. A resume that
// would drop at least as many carried rows as it keeps is declined: the
// solve starts from J0.
//
// Contract: a kOptimal x is primal feasible within kConstraintTol. A dual
// method is primal infeasible until it ends, so a kMaxIterations or
// kInfeasible x satisfies only the rows reported active.
//
// Per-solve scratch lives in a caller-owned QpWorkspace of O(n + m)
// doubles, and the carried state in a DualFactor, so a solve within their
// sizes performs no heap allocation.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/annotations.h"
#include "linalg/matrix.h"
#include "linalg/sparse.h"
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

// Names a range of CSR rows and the content they held: a warm start is
// valid only over the rows its factor was built from. The revision is the
// matrix's (linalg::SparseMatrix::revision); 0 names no rows, so a key
// with revision 0 (any dense view) never matches.
struct RowsKey {
  std::uint64_t revision = 0;
  std::size_t first = 0;
  std::size_t count = 0;

  bool matches(const RowsKey& other) const {
    return revision != 0 && revision == other.revision &&
           first == other.first && count == other.count;
  }
};

// The rows of A as the dual core reads them: one row at a time, through
// its stored entries in ascending column order. A view of a dense Matrix
// walks every entry of a row; a view of a CSR SparseMatrix walks only the
// stored nonzeros, so a rate-bound row costs one multiply where its dense
// form costs n. A zero entry adds only a signed zero to a dot product, so
// both forms of the same rows give the same sums bit for bit. A view does
// not own its rows, which must outlive it.
class RowsView {
 public:
  // Every row of a dense matrix. Implicit, so dense callers pass a Matrix.
  RowsView(const linalg::Matrix& a)
      : dense_(&a), rows_(a.rows()), cols_(a.cols()) {}
  // Rows [first, first + count) of a CSR matrix.
  RowsView(const linalg::SparseMatrix& a, std::size_t first,
           std::size_t count);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  // The rows' identity for warm starts; revision 0 for a dense view.
  RowsKey key() const {
    return {sparse_ != nullptr ? sparse_->revision() : 0, first_, rows_};
  }

  // a_i x over row i's stored entries; `x` holds cols() values.
  double dot(std::size_t i, const double* x) const {
    double acc = 0.0;
    if (dense_ != nullptr) {
      const double* row = dense_->row_ptr(i);
      for (std::size_t j = 0; j < cols_; ++j) acc += row[j] * x[j];
    } else {
      const std::size_t end = sparse_->row_end(first_ + i);
      for (std::size_t k = sparse_->row_begin(first_ + i); k < end; ++k)
        acc += sparse_->value(k) * x[sparse_->col_index(k)];
    }
    return acc;
  }

 private:
  const linalg::Matrix* dense_ = nullptr;
  const linalg::SparseMatrix* sparse_ = nullptr;
  std::size_t first_ = 0;
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
};

// Per-solve scratch for the dual solver: O(n + m) values, so controllers
// that solve one after another (the hierarchical controller's shards) can
// share one. reserve() sizes every buffer for the largest shape seen and
// is growth-only; call it at setup or model rebuild, off the realtime
// path.
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

  linalg::Vector d;   // J' a_p for the entering row p
  linalg::Vector rd;  // R^{-1} d_1, the dual step direction; y on a resume
  linalg::Vector u;   // active multipliers, then the entering row's
  std::vector<unsigned char> in_active;  // per-row membership flags
};

// The dual method's state: J' and R with J'N = [R; 0] for the active
// normals N, and N's rows in the order they entered (R's column order).
// It outlives a solve: LsqlinSolver carries one from each solve to the
// next and resumes from it (see the header comment); solve_qp_into starts
// from J0 every time. A solve over other rows forgets the active set; a
// solve touches J and R only after its unconstrained minimizer proved
// infeasible, and then leaves the state of its last iterate, whatever the
// status: J'N = [R; 0] holds after every add and drop.
struct DualFactor {
  // Sizes J', R and the row list for `vars` variables and forgets the
  // active set. Allocates; call it off the realtime path.
  void reserve(std::size_t vars);
  // Forgets the active set, so that the next solve starts from J0 (a new
  // Hessian, or rows that changed).
  void clear() {
    q = 0;
    key = {};
  }

  linalg::Matrix jt;  // J' (row k is column k of J), n×n live
  linalg::Matrix r;   // R, upper triangular, live q×q of n×n
  std::vector<std::size_t> order;  // N's rows in entry order, first q live
  std::size_t q = 0;               // active rows
  RowsKey key;  // the rows `order` indexes; only a solve over them resumes
};

// What one run of the dual core did.
struct DualRun {
  Status status = Status::kMaxIterations;
  int iterations = 0;      // adds plus drops, warm drops included
  bool fast_path = false;  // the unconstrained minimizer was feasible
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
// J0' = L^{-1} (it may be factor.jt itself); on exit `x` is the solution or
// the last iterate and `active` lists the active rows in ascending order.
// A factor whose key does not match a.key() is cleared first. When x is
// infeasible, the solve resumes from the factor's active set, if any, and
// otherwise starts from J0; its J must belong to the same Hessian (the
// caller's duty: clear() it when H changes). `ws` must have been
// reserved for (x.size(), a.rows()), and `factor` sized for x.size() to
// stay allocation-free. A may have zero rows. The violation scan, the full
// step's residual and J'a_p walk each row's stored entries only.
DualRun solve_dual_into(const linalg::Matrix& j0t, const RowsView& a,
                        const linalg::Vector& b, const Options& opts,
                        QpWorkspace& ws, DualFactor& factor, linalg::Vector& x,
                        std::vector<std::size_t>& active) EUCON_REALTIME;

// Solves the QP into caller-owned storage: factors H + kRegularization·I by
// Cholesky into `factor`, then runs the dual core from J0. `ws` must have
// been reserved for at least (f.size(), a.rows()); `factor` and `out` are
// reused across calls, so repeated solves of same-shaped problems allocate
// nothing. Throws std::invalid_argument when H + kRegularization·I is not
// positive definite.
void solve_qp_into(const linalg::Matrix& h, const linalg::Vector& f,
                   const RowsView& a, const linalg::Vector& b,
                   const Options& opts, QpWorkspace& ws, DualFactor& factor,
                   Result& out) EUCON_REALTIME;

// One-shot convenience wrapper: allocates a workspace per call.
Result solve_qp(const linalg::Matrix& h, const linalg::Vector& f,
                const RowsView& a, const linalg::Vector& b,
                const Options& opts = {});

// Maximum violation max_i (a_i x - b_i), or 0 when A has no rows.
double max_violation(const RowsView& a, const linalg::Vector& b,
                     const linalg::Vector& x);

}  // namespace eucon::qp
