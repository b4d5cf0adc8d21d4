// Sparse plant model + ownership topology + the linear plant: the CSR
// builder must agree bit for bit with the dense builder on every workload
// both can represent, and the linear plant must follow the paper's
// difference equation.
#include "control/sparse_model.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <ostream>
#include <string>

#include "control/model.h"
#include "control/topology.h"
#include "eucon/workloads.h"
#include "linalg/sparse.h"

namespace eucon::control {
namespace {

using linalg::Matrix;
using linalg::SparseMatrix;
using linalg::Vector;

struct BuilderCase {
  std::string name;
  std::function<rts::SystemSpec()> spec;
};

// Printed into the listed test name; gtest's default byte dump of the
// string and function members would change on every build.
void PrintTo(const BuilderCase& c, std::ostream* os) { *os << c.name; }

class SparseModelBuilderTest : public ::testing::TestWithParam<BuilderCase> {};

void expect_identical(const Matrix& a, const Matrix& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t j = 0; j < a.cols(); ++j)
      ASSERT_EQ(a(i, j), b(i, j)) << i << "," << j;
}

TEST_P(SparseModelBuilderTest, MatchesDenseBuilder) {
  const rts::SystemSpec spec = GetParam().spec();
  const PlantModel dense = make_plant_model(spec);
  const SparsePlantModel sparse = make_sparse_plant_model(spec);

  // The CSR build equals compressing the dense build, entry for entry.
  const SparseMatrix& f = sparse.f;
  const SparseMatrix g = sparsify(dense).f;
  ASSERT_EQ(f.rows(), g.rows());
  ASSERT_EQ(f.cols(), g.cols());
  ASSERT_EQ(f.nnz(), g.nnz());
  for (std::size_t r = 0; r < f.rows(); ++r) {
    ASSERT_EQ(f.row_begin(r), g.row_begin(r));
    for (std::size_t k = f.row_begin(r); k < f.row_end(r); ++k) {
      ASSERT_EQ(f.col_index(k), g.col_index(k));
      ASSERT_EQ(f.value(k), g.value(k));
    }
  }

  // And its dense view is the dense build, exactly.
  const PlantModel back = sparse.to_dense();
  expect_identical(back.f, dense.f);
  EXPECT_EQ(back.b.data(), dense.b.data());
  EXPECT_EQ(back.rate_min.data(), dense.rate_min.data());
  EXPECT_EQ(back.rate_max.data(), dense.rate_max.data());
}

rts::SystemSpec cluster_task_set() {
  // The first task set of perfbench's cluster_des panel.
  workloads::ChainClusterParams params;
  params.num_processors = 256;
  params.tasks_per_processor = 2;
  params.chain_length = 3;
  params.subtask_decay = 0.15;
  return workloads::chain_cluster(params, 4100);
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, SparseModelBuilderTest,
    ::testing::Values(BuilderCase{"simple", workloads::simple},
                      BuilderCase{"medium", workloads::medium},
                      BuilderCase{"large", workloads::large},
                      BuilderCase{"chain_cluster", cluster_task_set}),
    [](const ::testing::TestParamInfo<BuilderCase>& info) {
      return info.param.name;
    });

TEST(SparseModelTest, SparsifyAndToDenseRoundTrip) {
  const PlantModel dense = make_plant_model(workloads::large());
  const SparsePlantModel sparse = sparsify(dense);
  const PlantModel back = sparse.to_dense();
  EXPECT_TRUE(approx_equal(back.f, dense.f, 0.0));
}

TEST(SparseModelTest, ChainClusterNeverMaterializesDense) {
  workloads::ChainClusterParams params;
  params.num_processors = 64;
  params.tasks_per_processor = 2;
  params.chain_length = 3;
  const rts::SystemSpec spec = workloads::chain_cluster(params, 11);
  const SparsePlantModel model = make_sparse_plant_model(spec);
  EXPECT_EQ(model.num_processors(), 64u);
  EXPECT_EQ(model.num_tasks(), 128u);
  // chain_length nonzeros per column (chains never revisit a processor at
  // this length), so nnz = m * chain_length exactly.
  EXPECT_EQ(model.f.nnz(), 128u * 3u);
  // Agreement with the dense builder at a size where both are viable.
  EXPECT_TRUE(approx_equal(model.f, make_plant_model(spec).f, 0.0));
}

TEST(LinearPlantTest, InitialUtilizationFromRates) {
  const SparsePlantModel model = make_sparse_plant_model(workloads::simple());
  const Vector r0 = workloads::simple().initial_rate_vector();
  SparseLinearPlant plant(model, Vector{1.0, 1.0}, r0);
  const Vector expected = model.f * r0;
  EXPECT_NEAR(plant.utilization()[0], expected[0], 1e-12);
  EXPECT_NEAR(plant.utilization()[1], expected[1], 1e-12);
}

TEST(LinearPlantTest, StepFollowsDifferenceEquation) {
  const SparsePlantModel model = make_sparse_plant_model(workloads::simple());
  const Vector r0 = workloads::simple().initial_rate_vector();
  SparseLinearPlant plant(model, Vector{0.5, 0.25}, r0);  // no saturation
  const Vector u0 = plant.utilization();
  Vector r1 = r0;
  r1[0] += 0.001;
  const Vector u1 = plant.step(r1);
  // Δb = F Δr; u += G Δb (paper eq. 5).
  EXPECT_NEAR(u1[0], u0[0] + 0.5 * model.f.at(0, 0) * 0.001, 1e-12);
  EXPECT_NEAR(u1[1], u0[1] + 0.25 * model.f.at(1, 0) * 0.001, 1e-12);
}

TEST(LinearPlantTest, SaturatesAtZeroAndOne) {
  const SparsePlantModel model = make_sparse_plant_model(workloads::simple());
  const Vector r0 = workloads::simple().initial_rate_vector();
  SparseLinearPlant plant(model, Vector{50.0, 50.0}, r0);
  EXPECT_LE(plant.utilization()[0], 1.0);
  Vector tiny(3, 1e-9);
  const Vector u = plant.step(tiny);  // huge negative Δr, saturate at 0
  EXPECT_GE(u[0], 0.0);
  EXPECT_GE(u[1], 0.0);
}

TEST(LinearPlantTest, RejectsWrongSizes) {
  const SparsePlantModel model = make_sparse_plant_model(workloads::simple());
  const Vector r0 = workloads::simple().initial_rate_vector();
  EXPECT_THROW(SparseLinearPlant(model, Vector{1.0}, r0),
               std::invalid_argument);
  SparseLinearPlant plant(model, Vector{1.0, 1.0}, r0);
  EXPECT_THROW(plant.step(Vector{0.1}), std::invalid_argument);
}

TEST(SparseLinearPlantTest, TracksDenseLinearPlantStepwise) {
  // The CSR plant against the difference equation written out with the
  // dense F: u(0) = G F r(0), then u += G (F Δr), saturated to [0, 1].
  const rts::SystemSpec spec = workloads::medium();
  const PlantModel dense = make_plant_model(spec);
  const Vector r0 = spec.initial_rate_vector();
  const Vector gains(dense.num_processors(), 0.8);
  SparseLinearPlant sut(sparsify(dense), gains, r0);
  Vector u_ref = dense.f * r0;
  for (std::size_t i = 0; i < gains.size(); ++i) {
    u_ref[i] = std::clamp(gains[i] * u_ref[i], 0.0, 1.0);
    EXPECT_DOUBLE_EQ(sut.utilization()[i], u_ref[i]);
  }

  Vector rates = r0;
  for (int k = 0; k < 25; ++k) {
    const Vector prev = rates;
    for (std::size_t j = 0; j < rates.size(); ++j)
      rates[j] = r0[j] * (1.0 + 0.3 * static_cast<double>((k + j) % 5) / 5.0);
    const Vector du = dense.f * (rates - prev);
    const Vector& u_sut = sut.step(rates);
    for (std::size_t i = 0; i < gains.size(); ++i) {
      u_ref[i] = std::clamp(u_ref[i] + gains[i] * du[i], 0.0, 1.0);
      EXPECT_DOUBLE_EQ(u_sut[i], u_ref[i]) << "period " << k << " P" << i;
    }
  }
}

TEST(SparseLinearPlantTest, RejectsBadSizes) {
  const SparsePlantModel model =
      make_sparse_plant_model(workloads::simple());
  EXPECT_THROW(SparseLinearPlant(model, Vector{1.0}, Vector(3, 0.01)),
               std::invalid_argument);
  EXPECT_THROW(SparseLinearPlant(model, Vector(2, 1.0), Vector{0.01}),
               std::invalid_argument);
  SparseLinearPlant plant(model, Vector(2, 1.0),
                          workloads::simple().initial_rate_vector());
  EXPECT_THROW(plant.step(Vector{0.5}), std::invalid_argument);
  EXPECT_THROW(plant.set_utilization(Vector{0.5}), std::invalid_argument);
}

TEST(TopologyTest, OwnershipPicksLargestEntry) {
  // Column 0: largest on processor 2. Column 1: largest on processor 0.
  const SparseMatrix f = SparseMatrix::from_triplets(
      3, 2, {{0, 0, 1.0}, {2, 0, 5.0}, {0, 1, 4.0}, {1, 1, 2.0}});
  const std::vector<std::size_t> owner = compute_ownership(f);
  EXPECT_EQ(owner[0], 2u);
  EXPECT_EQ(owner[1], 0u);
}

TEST(TopologyTest, ExactTiesBreakToLowestProcessorIndex) {
  // Both columns tie across processors; the documented rule picks the
  // lowest index among the tied maxima, not an arbitrary one.
  const SparseMatrix f = SparseMatrix::from_triplets(
      4, 2,
      {{1, 0, 3.0}, {3, 0, 3.0}, {0, 1, 2.0}, {2, 1, 7.0}, {3, 1, 7.0}});
  const std::vector<std::size_t> owner = compute_ownership(f);
  EXPECT_EQ(owner[0], 1u);  // tie {1, 3} -> 1
  EXPECT_EQ(owner[1], 2u);  // tie {2, 3} -> 2, the 2.0 on P0 loses
}

TEST(TopologyTest, AllZeroColumnNamesTheTask) {
  const SparseMatrix f =
      SparseMatrix::from_triplets(2, 3, {{0, 0, 1.0}, {1, 2, 1.0}});
  try {
    compute_ownership(f);
    FAIL() << "all-zero column must be rejected";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("task 1"), std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace eucon::control
