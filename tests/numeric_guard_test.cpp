// Numeric-guard layer in its *enabled* mode. This translation unit is always
// compiled with EUCON_NUMERIC_CHECKS=1 (see tests/CMakeLists.txt), so the
// macro semantics are covered by every build. The library-injection tests at
// the bottom additionally require the libraries themselves to be built with
// -DEUCON_NUMERIC_CHECKS=ON and are skipped otherwise (tools/check.sh runs
// that preset).
#include "common/check.h"

#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "linalg/lu.h"
#include "linalg/matrix.h"
#include "linalg/vector.h"
#include "qp/lsqlin.h"

namespace {

using eucon::NumericError;
using eucon::linalg::Matrix;
using eucon::linalg::Vector;

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(NumericGuardTest, EnabledFlagReportsOn) {
  EXPECT_TRUE(eucon::kNumericChecksEnabled);
}

TEST(NumericGuardTest, FiniteValuesPass) {
  EXPECT_NO_THROW(EUCON_CHECK_FINITE_SCALAR("op", 1.5));
  const Vector v{0.0, -3.5, 1e300};
  EXPECT_NO_THROW(EUCON_CHECK_FINITE_VEC("op", v));
  const Matrix m{{1.0, 2.0}, {3.0, 4.0}};
  EXPECT_NO_THROW(EUCON_CHECK_FINITE_MAT("op", m));
}

TEST(NumericGuardTest, ScalarNaNThrowsNamedNumericError) {
  try {
    EUCON_CHECK_FINITE_SCALAR("Vector::dot", kNaN);
    FAIL() << "guard did not throw";
  } catch (const NumericError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("Vector::dot"), std::string::npos) << msg;
    EXPECT_NE(msg.find("scalar"), std::string::npos) << msg;
    EXPECT_NE(msg.find("nan"), std::string::npos) << msg;
  }
}

TEST(NumericGuardTest, ScalarInfinityThrows) {
  EXPECT_THROW(EUCON_CHECK_FINITE_SCALAR("op", kInf), NumericError);
  EXPECT_THROW(EUCON_CHECK_FINITE_SCALAR("op", -kInf), NumericError);
}

TEST(NumericGuardTest, VectorGuardPinpointsEntry) {
  Vector v(4, 1.0);
  v[2] = kNaN;
  try {
    EUCON_CHECK_FINITE_VEC("Vector::operator+=", v);
    FAIL() << "guard did not throw";
  } catch (const NumericError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("Vector::operator+="), std::string::npos) << msg;
    EXPECT_NE(msg.find("entry 2 of 4-vector"), std::string::npos) << msg;
  }
}

TEST(NumericGuardTest, MatrixGuardPinpointsRowAndColumn) {
  Matrix m(2, 3, 0.5);
  m(1, 2) = kInf;
  try {
    EUCON_CHECK_FINITE_MAT("gram", m);
    FAIL() << "guard did not throw";
  } catch (const NumericError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("gram"), std::string::npos) << msg;
    EXPECT_NE(msg.find("entry (1,2) of 2x3 matrix"), std::string::npos) << msg;
    EXPECT_NE(msg.find("inf"), std::string::npos) << msg;
  }
}

TEST(NumericGuardTest, ReportsFirstOffendingEntry) {
  Vector v(3, 0.0);
  v[0] = kNaN;
  v[2] = kInf;
  try {
    EUCON_CHECK_FINITE_VEC("op", v);
    FAIL() << "guard did not throw";
  } catch (const NumericError& e) {
    EXPECT_NE(std::string(e.what()).find("entry 0"), std::string::npos);
  }
}

TEST(NumericGuardTest, NumericErrorIsARuntimeError) {
  // Callers that already catch std::runtime_error keep working.
  EXPECT_THROW(EUCON_CHECK_FINITE_SCALAR("op", kNaN), std::runtime_error);
}

#ifdef EUCON_LIBS_HAVE_NUMERIC_CHECKS
constexpr bool kLibsInstrumented = true;
#else
constexpr bool kLibsInstrumented = false;
#endif

// Injected-NaN coverage of the instrumented library hot paths. These prove
// the acceptance criterion "EUCON_NUMERIC_CHECKS=ON build catches an
// injected NaN": the NaN is reported at the operation that first sees it,
// not several sampling periods later.

TEST(NumericGuardLibraryTest, MatrixProductCatchesInjectedNaN) {
  if (!kLibsInstrumented)
    GTEST_SKIP() << "libraries built without EUCON_NUMERIC_CHECKS";
  Matrix a = Matrix::identity(3);
  a(1, 1) = kNaN;
  const Matrix b = Matrix::identity(3);
  EXPECT_THROW(a * b, NumericError);
}

TEST(NumericGuardLibraryTest, LuFactorizationRejectsNaNInput) {
  if (!kLibsInstrumented)
    GTEST_SKIP() << "libraries built without EUCON_NUMERIC_CHECKS";
  Matrix a{{1.0, 2.0}, {3.0, kNaN}};
  EXPECT_THROW(eucon::linalg::Lu{a}, NumericError);
}

TEST(NumericGuardLibraryTest, LsqlinRejectsNaNTarget) {
  if (!kLibsInstrumented)
    GTEST_SKIP() << "libraries built without EUCON_NUMERIC_CHECKS";
  eucon::qp::LsqlinProblem prob;
  prob.c = Matrix{{1.0, 0.0}, {0.0, 1.0}};
  prob.d = Vector{1.0, kNaN};
  EXPECT_THROW(eucon::qp::lsqlin(prob, {}), NumericError);
}

TEST(NumericGuardLibraryTest, VectorArithmeticCatchesInjectedInf) {
  if (!kLibsInstrumented)
    GTEST_SKIP() << "libraries built without EUCON_NUMERIC_CHECKS";
  Vector a{1.0, kInf};
  const Vector b{1.0, 1.0};
  EXPECT_THROW(a += b, NumericError);
}

}  // namespace
