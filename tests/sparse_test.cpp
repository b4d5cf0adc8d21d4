#include "linalg/sparse.h"

#include <gtest/gtest.h>

#include "linalg/matrix.h"
#include "linalg/vector.h"

namespace eucon::linalg {
namespace {

Matrix reference_dense() {
  // 3×4 with an empty middle row and a duplicate-free scatter of values.
  Matrix d(3, 4);
  d(0, 0) = 2.0;
  d(0, 3) = 1.5;
  d(2, 1) = 4.0;
  d(2, 2) = 0.5;
  d(2, 3) = 3.0;
  return d;
}

TEST(SparseTest, FromTripletsMatchesDense) {
  const Matrix d = reference_dense();
  const SparseMatrix s = SparseMatrix::from_triplets(
      3, 4, {{2, 3, 3.0}, {0, 0, 2.0}, {2, 1, 4.0}, {0, 3, 1.5}, {2, 2, 0.5}});
  EXPECT_EQ(s.rows(), 3u);
  EXPECT_EQ(s.cols(), 4u);
  EXPECT_EQ(s.nnz(), 5u);
  for (std::size_t r = 0; r < 3; ++r)
    for (std::size_t c = 0; c < 4; ++c)
      EXPECT_DOUBLE_EQ(s.at(r, c), d(r, c)) << r << "," << c;
}

TEST(SparseTest, FromTripletsSumsDuplicates) {
  const SparseMatrix s = SparseMatrix::from_triplets(
      2, 2, {{0, 1, 1.0}, {0, 1, 2.5}, {1, 0, -1.0}, {1, 0, 1.0}});
  EXPECT_EQ(s.nnz(), 2u);  // duplicates merged, zero-sum entry kept explicit
  EXPECT_DOUBLE_EQ(s.at(0, 1), 3.5);
  EXPECT_DOUBLE_EQ(s.at(1, 0), 0.0);
}

TEST(SparseTest, DuplicatesSumInInputOrder) {
  // Rounding makes the sum order-dependent: 1e16 + 1 rounds back to 1e16.
  // Enough duplicates, interleaved with other coordinates, that an unstable
  // sort would reorder them; the builder must sum them as listed, like a
  // dense += loop over the same input.
  std::vector<Triplet> entries;
  double expected = 0.0;
  for (int i = 0; i < 64; ++i) {
    const double v = i == 0 ? 1e16 : (i == 63 ? -1e16 : 1.0);
    entries.push_back({0, 0, v});
    entries.push_back({1, static_cast<std::size_t>(i % 2), 1.0});
    expected += v;
  }
  const SparseMatrix s = SparseMatrix::from_triplets(2, 2, entries);
  EXPECT_EQ(s.at(0, 0), expected);
}

TEST(SparseTest, FromDenseRoundTrips) {
  const Matrix d = reference_dense();
  const SparseMatrix s = SparseMatrix::from_dense(d);
  EXPECT_EQ(s.nnz(), 5u);
  EXPECT_TRUE(approx_equal(s, d, 0.0));
  const Matrix back = s.to_dense();
  for (std::size_t r = 0; r < 3; ++r)
    for (std::size_t c = 0; c < 4; ++c)
      EXPECT_DOUBLE_EQ(back(r, c), d(r, c));
}

TEST(SparseTest, FromDenseDropsBelowTolerance) {
  Matrix d(2, 2);
  d(0, 0) = 1e-12;
  d(1, 1) = 1.0;
  const SparseMatrix s = SparseMatrix::from_dense(d, 1e-9);
  EXPECT_EQ(s.nnz(), 1u);
  EXPECT_DOUBLE_EQ(s.at(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(s.at(1, 1), 1.0);
}

TEST(SparseTest, RowAccessorsWalkAscendingColumns) {
  const SparseMatrix s = SparseMatrix::from_dense(reference_dense());
  EXPECT_EQ(s.row_nnz(0), 2u);
  EXPECT_EQ(s.row_nnz(1), 0u);
  EXPECT_EQ(s.row_nnz(2), 3u);
  std::size_t prev = 0;
  for (std::size_t k = s.row_begin(2); k < s.row_end(2); ++k) {
    if (k > s.row_begin(2)) {
      EXPECT_GT(s.col_index(k), prev);
    }
    prev = s.col_index(k);
  }
}

TEST(SparseTest, TransposeIsAnInvolution) {
  const Matrix d = reference_dense();
  const SparseMatrix s = SparseMatrix::from_dense(d);
  const SparseMatrix t = s.transposed();
  EXPECT_EQ(t.rows(), 4u);
  EXPECT_EQ(t.cols(), 3u);
  for (std::size_t r = 0; r < 3; ++r)
    for (std::size_t c = 0; c < 4; ++c)
      EXPECT_DOUBLE_EQ(t.at(c, r), d(r, c));
  EXPECT_TRUE(approx_equal(t.transposed(), d, 0.0));
}

TEST(SparseTest, MultiplyMatchesDense) {
  const Matrix d = reference_dense();
  const SparseMatrix s = SparseMatrix::from_dense(d);
  const Vector x{1.0, -2.0, 0.5, 3.0};
  const Vector dense = d * x;
  Vector out;
  multiply_into(s, x, out);
  ASSERT_EQ(out.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_DOUBLE_EQ(out[i], dense[i]);
  const Vector op = s * x;
  for (std::size_t i = 0; i < 3; ++i) EXPECT_DOUBLE_EQ(op[i], dense[i]);
}

TEST(SparseTest, TransposeTimesMatchesDense) {
  const Matrix d = reference_dense();
  const SparseMatrix s = SparseMatrix::from_dense(d);
  const Vector y{0.5, 7.0, -1.0};  // the empty row's weight must not matter
  Vector expect(4, 0.0);
  for (std::size_t r = 0; r < 3; ++r)
    for (std::size_t c = 0; c < 4; ++c) expect[c] += d(r, c) * y[r];
  Vector out;
  transpose_times_into(s, y, out);
  ASSERT_EQ(out.size(), 4u);
  for (std::size_t c = 0; c < 4; ++c) EXPECT_DOUBLE_EQ(out[c], expect[c]);
}

TEST(SparseTest, RowDotMatchesDense) {
  const Matrix d = reference_dense();
  const SparseMatrix s = SparseMatrix::from_dense(d);
  const Vector x{1.0, -2.0, 0.5, 3.0};
  for (std::size_t r = 0; r < 3; ++r) {
    double expect = 0.0;
    for (std::size_t c = 0; c < 4; ++c) expect += d(r, c) * x[c];
    EXPECT_DOUBLE_EQ(row_dot(s, r, x), expect);
  }
}

TEST(SparseTest, RejectsBadInputs) {
  EXPECT_THROW(SparseMatrix::from_triplets(2, 2, {{2, 0, 1.0}}),
               std::invalid_argument);
  EXPECT_THROW(SparseMatrix::from_triplets(2, 2, {{0, 2, 1.0}}),
               std::invalid_argument);
  const SparseMatrix s = SparseMatrix::from_dense(reference_dense());
  Vector out;
  EXPECT_THROW(multiply_into(s, Vector{1.0}, out), std::invalid_argument);
  EXPECT_THROW(transpose_times_into(s, Vector{1.0}, out),
               std::invalid_argument);
  EXPECT_THROW(row_dot(s, 9, Vector(4, 0.0)), std::invalid_argument);
  EXPECT_THROW(s.at(3, 0), std::invalid_argument);
}

TEST(SparseTest, EmptyMatrixBehaves)
{
  const SparseMatrix s;
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.nnz(), 0u);
}

}  // namespace
}  // namespace eucon::linalg
