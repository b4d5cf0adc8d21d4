#include "linalg/sparse.h"

#include <algorithm>
#include <atomic>
#include <cmath>

#include "common/check.h"

namespace eucon::linalg {

namespace {

// A process-wide stamp for SparseMatrix::revision(), never 0.
std::uint64_t next_revision() {
  static std::atomic<std::uint64_t> last{0};
  return last.fetch_add(1, std::memory_order_relaxed) + 1;
}

}  // namespace

SparseMatrix::SparseMatrix(std::size_t cols) : cols_(cols), row_ptr_{0} {}

void SparseMatrix::reserve(std::size_t rows, std::size_t nnz) {
  row_ptr_.reserve(row_ptr_.size() + rows);
  cols_idx_.reserve(cols_idx_.size() + nnz);
  values_.reserve(values_.size() + nnz);
}

void SparseMatrix::push_entry(std::size_t col, double value) {
  EUCON_REQUIRE(!row_ptr_.empty(),
                "SparseMatrix::push_entry needs SparseMatrix(cols)");
  EUCON_REQUIRE(col < cols_, "sparse column out of range");
  EUCON_REQUIRE(values_.size() == row_ptr_.back() || cols_idx_.back() < col,
                "sparse row columns must be strictly increasing");
  cols_idx_.push_back(col);
  values_.push_back(value);
}

void SparseMatrix::end_row() {
  EUCON_REQUIRE(!row_ptr_.empty(),
                "SparseMatrix::end_row needs SparseMatrix(cols)");
  row_ptr_.push_back(values_.size());
  ++rows_;
  revision_ = next_revision();
}

SparseMatrix SparseMatrix::from_triplets(std::size_t rows, std::size_t cols,
                                         std::vector<Triplet> entries) {
  for (const Triplet& t : entries)
    EUCON_REQUIRE(t.row < rows && t.col < cols,
                  "sparse triplet out of range: (" + std::to_string(t.row) +
                      ", " + std::to_string(t.col) + ") in " +
                      std::to_string(rows) + "x" + std::to_string(cols));
  // Stable: duplicates keep their input order, so they sum in the order
  // the caller listed them (bit-identical to accumulating a dense matrix).
  std::stable_sort(entries.begin(), entries.end(),
                   [](const Triplet& a, const Triplet& b) {
                     return a.row != b.row ? a.row < b.row : a.col < b.col;
                   });

  SparseMatrix m;
  m.rows_ = rows;
  m.cols_ = cols;
  m.row_ptr_.assign(rows + 1, 0);
  m.cols_idx_.reserve(entries.size());
  m.values_.reserve(entries.size());
  for (std::size_t k = 0; k < entries.size();) {
    const std::size_t r = entries[k].row;
    const std::size_t c = entries[k].col;
    double sum = 0.0;
    for (; k < entries.size() && entries[k].row == r && entries[k].col == c;
         ++k)
      sum += entries[k].value;
    m.cols_idx_.push_back(c);
    m.values_.push_back(sum);
    ++m.row_ptr_[r + 1];
  }
  for (std::size_t r = 0; r < rows; ++r) m.row_ptr_[r + 1] += m.row_ptr_[r];
  m.revision_ = next_revision();
  return m;
}

SparseMatrix SparseMatrix::from_dense(const Matrix& dense, double tol) {
  EUCON_REQUIRE(tol >= 0.0, "sparsification tolerance must be non-negative");
  SparseMatrix m;
  m.rows_ = dense.rows();
  m.cols_ = dense.cols();
  m.row_ptr_.assign(m.rows_ + 1, 0);
  for (std::size_t r = 0; r < m.rows_; ++r) {
    const double* row = dense.row_ptr(r);
    for (std::size_t c = 0; c < m.cols_; ++c) {
      if (std::abs(row[c]) > tol) {
        m.cols_idx_.push_back(c);
        m.values_.push_back(row[c]);
        ++m.row_ptr_[r + 1];
      }
    }
  }
  for (std::size_t r = 0; r < m.rows_; ++r) m.row_ptr_[r + 1] += m.row_ptr_[r];
  m.revision_ = next_revision();
  return m;
}

double SparseMatrix::at(std::size_t r, std::size_t c) const {
  EUCON_REQUIRE(r < rows_ && c < cols_, "sparse index out of range");
  const auto first = cols_idx_.begin() + static_cast<std::ptrdiff_t>(row_ptr_[r]);
  const auto last = cols_idx_.begin() + static_cast<std::ptrdiff_t>(row_ptr_[r + 1]);
  const auto it = std::lower_bound(first, last, c);
  if (it == last || *it != c) return 0.0;
  return values_[static_cast<std::size_t>(it - cols_idx_.begin())];
}

SparseMatrix SparseMatrix::transposed() const {
  SparseMatrix t;
  t.rows_ = cols_;
  t.cols_ = rows_;
  t.row_ptr_.assign(cols_ + 1, 0);
  for (const std::size_t c : cols_idx_) ++t.row_ptr_[c + 1];
  for (std::size_t r = 0; r < cols_; ++r) t.row_ptr_[r + 1] += t.row_ptr_[r];
  t.cols_idx_.resize(values_.size());
  t.values_.resize(values_.size());
  std::vector<std::size_t> next(t.row_ptr_.begin(), t.row_ptr_.end() - 1);
  // Walking the source rows in order writes each transposed row's entries
  // in ascending (source-row) order, preserving the CSR invariant.
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
      const std::size_t slot = next[cols_idx_[k]]++;
      t.cols_idx_[slot] = r;
      t.values_[slot] = values_[k];
    }
  }
  t.revision_ = next_revision();
  return t;
}

Matrix SparseMatrix::to_dense() const {
  Matrix dense(rows_, cols_);
  for (std::size_t r = 0; r < rows_; ++r)
    for (std::size_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k)
      dense(r, cols_idx_[k]) = values_[k];
  return dense;
}

void multiply_into(const SparseMatrix& a, const Vector& x, Vector& out) {
  EUCON_REQUIRE(a.cols() == x.size(), "sparse matvec dimension mismatch");
  out.reshape(a.rows());
  for (std::size_t r = 0; r < a.rows(); ++r) {
    double acc = 0.0;
    for (std::size_t k = a.row_begin(r); k < a.row_end(r); ++k)
      acc += a.value(k) * x[a.col_index(k)];
    out[r] = acc;
  }
  EUCON_CHECK_FINITE_VEC("sparse multiply_into result", out);
}

void transpose_times_into(const SparseMatrix& a, const Vector& x, Vector& out) {
  EUCON_REQUIRE(a.rows() == x.size(),
                "sparse transpose_times dimension mismatch");
  out.reshape(a.cols());
  out.fill(0.0);
  for (std::size_t r = 0; r < a.rows(); ++r) {
    const double xr = x[r];
    if (xr == 0.0) continue;  // eucon-lint: allow(float-equality)
    for (std::size_t k = a.row_begin(r); k < a.row_end(r); ++k)
      out[a.col_index(k)] += a.value(k) * xr;
  }
  EUCON_CHECK_FINITE_VEC("sparse transpose_times_into result", out);
}

double row_dot(const SparseMatrix& a, std::size_t r, const Vector& x) {
  EUCON_REQUIRE(r < a.rows() && a.cols() == x.size(),
                "sparse row_dot dimension mismatch");
  double acc = 0.0;
  for (std::size_t k = a.row_begin(r); k < a.row_end(r); ++k)
    acc += a.value(k) * x[a.col_index(k)];
  return acc;
}

Vector operator*(const SparseMatrix& a, const Vector& x) {
  Vector out(a.rows());
  multiply_into(a, x, out);
  return out;
}

bool approx_equal(const SparseMatrix& a, const Matrix& b, double tol) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  return approx_equal(a.to_dense(), b, tol);
}

}  // namespace eucon::linalg
