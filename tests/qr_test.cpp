#include "linalg/qr.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "common/rng.h"
#include "linalg/lu.h"

namespace eucon::linalg {
namespace {

Matrix random_tall(std::size_t rows, std::size_t cols, Rng& rng) {
  Matrix m(rows, cols);
  for (std::size_t r = 0; r < rows; ++r)
    for (std::size_t c = 0; c < cols; ++c) m(r, c) = rng.uniform(-3.0, 3.0);
  return m;
}

TEST(QrTest, SquareExactSolve) {
  Matrix a{{2.0, 1.0}, {1.0, 3.0}};
  Vector b{3.0, 5.0};
  const Vector x = least_squares(a, b);
  EXPECT_NEAR(x[0], 0.8, 1e-12);
  EXPECT_NEAR(x[1], 1.4, 1e-12);
}

TEST(QrTest, RequiresTallMatrix) {
  EXPECT_THROW(Qr(Matrix(2, 3)), std::invalid_argument);
}

TEST(QrTest, RankDeficientDetected) {
  Matrix a{{1.0, 2.0}, {2.0, 4.0}, {3.0, 6.0}};
  Qr qr(a);
  EXPECT_FALSE(qr.full_rank());
  EXPECT_THROW(qr.solve_least_squares(Vector{1.0, 1.0, 1.0}),
               std::runtime_error);
}

TEST(QrTest, OverdeterminedKnownSolution) {
  // Fit y = c0 + c1 t through (0,1), (1,3), (2,5): exact line 1 + 2t.
  Matrix a{{1.0, 0.0}, {1.0, 1.0}, {1.0, 2.0}};
  Vector b{1.0, 3.0, 5.0};
  const Vector x = least_squares(a, b);
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], 2.0, 1e-12);
}

TEST(QrTest, ResidualOrthogonalToColumns) {
  Rng rng(42);
  const Matrix a = random_tall(10, 4, rng);
  Vector b(10);
  for (std::size_t i = 0; i < 10; ++i) b[i] = rng.uniform(-2.0, 2.0);
  const Vector x = least_squares(a, b);
  const Vector r = a * x - b;
  const Vector atr = transpose_times(a, r);
  EXPECT_LT(atr.norm_inf(), 1e-10);  // normal equations A'(Ax - b) = 0
}

TEST(QrTest, RFactorIsUpperTriangularAndReproducesGram) {
  Rng rng(5);
  const Matrix a = random_tall(8, 5, rng);
  const Matrix r = Qr(a).r();
  for (std::size_t i = 1; i < r.rows(); ++i)
    for (std::size_t j = 0; j < i; ++j) EXPECT_DOUBLE_EQ(r(i, j), 0.0);
  // A'A = R'R (Q orthogonal).
  EXPECT_TRUE(approx_equal(gram(a), r.transposed() * r, 1e-9));
}

TEST(QrTest, QtPreservesNorm) {
  Rng rng(11);
  const Matrix a = random_tall(9, 6, rng);
  Qr qr(a);
  Vector b(9);
  for (std::size_t i = 0; i < 9; ++i) b[i] = rng.uniform(-1.0, 1.0);
  EXPECT_NEAR(qr.qt_times(b).norm2(), b.norm2(), 1e-10);
}

class QrRandomLs : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(QrRandomLs, MatchesNormalEquations) {
  const auto [rows, cols] = GetParam();
  Rng rng(99 + rows * 31 + cols);
  const Matrix a = random_tall(static_cast<std::size_t>(rows),
                               static_cast<std::size_t>(cols), rng);
  Vector b(static_cast<std::size_t>(rows));
  for (std::size_t i = 0; i < b.size(); ++i) b[i] = rng.uniform(-2.0, 2.0);
  const Vector x_qr = least_squares(a, b);
  // Normal equations via LU (independent path).
  const Vector x_ne = Lu(gram(a)).solve(transpose_times(a, b));
  EXPECT_TRUE(approx_equal(x_qr, x_ne, 1e-6)) << rows << "x" << cols;
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, QrRandomLs,
    ::testing::Values(std::pair{3, 3}, std::pair{5, 2}, std::pair{10, 7},
                      std::pair{20, 5}, std::pair{40, 12}, std::pair{64, 32}));

// The factorization, Q^T b and back substitution as the column-strided
// layout computed them (R on and above the diagonal of one m×n matrix,
// Householder tails below it, the heads apart).
struct StridedQr {
  std::size_t m, n;
  Matrix qr;
  std::vector<double> beta, head;
  bool full_rank = true;

  explicit StridedQr(const Matrix& a)
      : m(a.rows()), n(a.cols()), qr(a), beta(n, 0.0), head(n, 0.0) {
    double scale = qr.frobenius_norm();
    if (scale == 0.0) scale = 1.0;  // eucon-lint: allow(float-equality)
    for (std::size_t k = 0; k < n; ++k) {
      double norm = 0.0;
      for (std::size_t i = k; i < m; ++i) norm += qr(i, k) * qr(i, k);
      norm = std::sqrt(norm);
      if (norm <= 1e-12 * scale) {
        full_rank = false;
        continue;
      }
      const double alpha = qr(k, k) >= 0 ? -norm : norm;
      const double vkk = qr(k, k) - alpha;
      qr(k, k) = alpha;
      double vtv = vkk * vkk;
      for (std::size_t i = k + 1; i < m; ++i) vtv += qr(i, k) * qr(i, k);
      if (vtv == 0.0) continue;  // eucon-lint: allow(float-equality)
      beta[k] = 2.0 / vtv;
      head[k] = vkk;
      for (std::size_t j = k + 1; j < n; ++j) {
        double dot = vkk * qr(k, j);
        for (std::size_t i = k + 1; i < m; ++i) dot += qr(i, k) * qr(i, j);
        const double s = beta[k] * dot;
        qr(k, j) -= s * vkk;
        for (std::size_t i = k + 1; i < m; ++i) qr(i, j) -= s * qr(i, k);
      }
    }
  }

  Vector qt(const Vector& b) const {
    Vector y = b;
    for (std::size_t k = 0; k < n; ++k) {
      if (beta[k] == 0.0) continue;  // eucon-lint: allow(float-equality)
      double dot = head[k] * y[k];
      for (std::size_t i = k + 1; i < m; ++i) dot += qr(i, k) * y[i];
      const double s = beta[k] * dot;
      y[k] -= s * head[k];
      for (std::size_t i = k + 1; i < m; ++i) y[i] -= s * qr(i, k);
    }
    return y;
  }

  Vector solve(const Vector& b) const {
    const Vector y = qt(b);
    Vector x(n);
    for (std::size_t ii = n; ii-- > 0;) {
      double acc = y[ii];
      for (std::size_t j = ii + 1; j < n; ++j) acc -= qr(ii, j) * x[j];
      x[ii] = acc / qr(ii, ii);
    }
    return x;
  }
};

bool same_bits(const Vector& a, const Vector& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data().data(), b.data().data(),
                     a.size() * sizeof(double)) == 0;
}

TEST(QrTest, ContiguousFactorMatchesStridedReferenceBitForBit) {
  Rng rng(4242);
  for (std::size_t n = 1; n <= 40; ++n) {
    for (std::size_t m = n; m <= 3 * n; ++m) {
      Matrix a = random_tall(m, n, rng);
      // Every third shape repeats a column, so a reflection is skipped.
      const bool deficient = n > 1 && (m + n) % 3 == 0;
      if (deficient)
        for (std::size_t i = 0; i < m; ++i) a(i, n - 1) = a(i, 0);
      Vector b(m);
      for (std::size_t i = 0; i < m; ++i) b[i] = rng.uniform(-3.0, 3.0);

      const Qr qr(a);
      const StridedQr ref(a);
      ASSERT_EQ(qr.full_rank(), ref.full_rank) << m << "x" << n;
      Vector y;
      qr.qt_times_into(b, y);
      ASSERT_TRUE(same_bits(y, ref.qt(b))) << m << "x" << n;
      for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = i; j < n; ++j)
          ASSERT_EQ(std::memcmp(qr.r().row_ptr(i) + j, ref.qr.row_ptr(i) + j,
                                sizeof(double)),
                    0)
              << m << "x" << n << " R(" << i << "," << j << ")";
      if (deficient) continue;
      Vector x;
      qr.solve_least_squares_into(b, y, x);
      ASSERT_TRUE(same_bits(x, ref.solve(b))) << m << "x" << n;
    }
  }
}

}  // namespace
}  // namespace eucon::linalg
