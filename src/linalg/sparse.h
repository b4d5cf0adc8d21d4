// Sparse real matrix, compressed sparse row (CSR).
//
// The cluster-scale control plane stores the subtask allocation matrix F
// this way: at n = 10k processors a dense n×m F is gigabytes of mostly
// zeros, while the task-chain structure keeps every column at chain-length
// nonzeros. The CSR kernels (multiply_into / transpose_times_into /
// row_dot) mirror the dense API in linalg/matrix.h name for name, so a
// caller can switch representations without rewriting its hot path.
//
// Invariants: within each row, column indices are strictly increasing;
// explicit zeros are allowed (from_triplets keeps whatever the builder
// sums to, from_dense drops entries with |v| <= tol).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/annotations.h"
#include "linalg/matrix.h"
#include "linalg/vector.h"

namespace eucon::linalg {

// One (row, col, value) entry for from_triplets. Duplicate coordinates are
// summed in input order, matching the usual sparse-assembly convention.
struct Triplet {
  std::size_t row = 0;
  std::size_t col = 0;
  double value = 0.0;
};

class SparseMatrix {
 public:
  SparseMatrix() = default;

  // A matrix of `cols` columns and no rows yet, assembled row by row:
  // push_entry() appends an entry to the open row (columns strictly
  // increasing) and end_row() closes it. For builders that emit their rows
  // in order, with no triplet sort.
  explicit SparseMatrix(std::size_t cols);
  void reserve(std::size_t rows, std::size_t nnz);
  void push_entry(std::size_t col, double value);
  void end_row();

  // Builds an r×c matrix from (row, col, value) entries; duplicates are
  // summed in input order. Entries out of range throw.
  static SparseMatrix from_triplets(std::size_t rows, std::size_t cols,
                                    std::vector<Triplet> entries);

  // Compresses a dense matrix, dropping entries with |v| <= tol.
  static SparseMatrix from_dense(const Matrix& dense, double tol = 0.0);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t nnz() const { return values_.size(); }
  // A stamp of the contents: every builder and every end_row() draws a new
  // one, never reused in the process, and a copy keeps its source's. A
  // cache keyed on rows (the QP's carried factor) compares stamps rather
  // than addresses, which freed rows hand on to the next. 0 = no rows
  // built yet.
  std::uint64_t revision() const { return revision_; }
  bool empty() const { return rows_ == 0 || cols_ == 0; }

  // Entry lookup by binary search within the row: O(log nnz(row)). Returns
  // 0.0 for absent entries. This is the random-access path for tests and
  // construction-time code; hot loops iterate rows directly instead.
  double at(std::size_t r, std::size_t c) const;

  // CSR row iteration: entries of row r live at indices
  // [row_begin(r), row_end(r)) of col_index()/value().
  std::size_t row_begin(std::size_t r) const { return row_ptr_[r]; }
  std::size_t row_end(std::size_t r) const { return row_ptr_[r + 1]; }
  std::size_t row_nnz(std::size_t r) const {
    return row_ptr_[r + 1] - row_ptr_[r];
  }
  std::size_t col_index(std::size_t k) const { return cols_idx_[k]; }
  double value(std::size_t k) const { return values_[k]; }

  // The transpose as a new CSR matrix (O(nnz)). F^T gives per-task
  // processor lists — the column access the shard builders need.
  SparseMatrix transposed() const;

  Matrix to_dense() const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<std::size_t> row_ptr_;   // rows_+1 entries (empty matrix: {0})
  std::vector<std::size_t> cols_idx_;  // nnz entries, ascending within a row
  std::vector<double> values_;         // nnz entries
  std::uint64_t revision_ = 0;
};

// y = A x into caller-owned storage; O(nnz). Aliasing `out` with `x` is not
// allowed. Steady-state calls never touch the heap once `out` has capacity.
void multiply_into(const SparseMatrix& a, const Vector& x,
                   Vector& out) EUCON_REALTIME;

// y = A^T x without materializing the transpose; O(nnz).
void transpose_times_into(const SparseMatrix& a, const Vector& x,
                          Vector& out) EUCON_REALTIME;

// Dot product of row r of `a` with `x` — the sparse counterpart of the
// contiguous dense kernel.
double row_dot(const SparseMatrix& a, std::size_t r,
               const Vector& x) EUCON_REALTIME;

Vector operator*(const SparseMatrix& a, const Vector& x);

bool approx_equal(const SparseMatrix& a, const Matrix& b, double tol);

}  // namespace eucon::linalg
