// Sparse plant model + ownership topology + sparse linear plant: the
// cluster-scale counterparts must agree exactly with the dense paths they
// mirror on every workload both can represent.
#include "control/sparse_model.h"

#include <gtest/gtest.h>

#include "control/linear_plant.h"
#include "control/model.h"
#include "control/topology.h"
#include "eucon/workloads.h"
#include "linalg/sparse.h"

namespace eucon::control {
namespace {

using linalg::SparseMatrix;
using linalg::Vector;

TEST(SparseModelTest, MatchesDenseBuilderOnMedium) {
  const rts::SystemSpec spec = workloads::medium();
  const PlantModel dense = make_plant_model(spec);
  const SparsePlantModel sparse = make_sparse_plant_model(spec);
  EXPECT_EQ(sparse.num_processors(), dense.num_processors());
  EXPECT_EQ(sparse.num_tasks(), dense.num_tasks());
  EXPECT_TRUE(approx_equal(sparse.f, dense.f, 0.0));
  for (std::size_t i = 0; i < dense.b.size(); ++i)
    EXPECT_DOUBLE_EQ(sparse.b[i], dense.b[i]);
  for (std::size_t j = 0; j < dense.rate_min.size(); ++j) {
    EXPECT_DOUBLE_EQ(sparse.rate_min[j], dense.rate_min[j]);
    EXPECT_DOUBLE_EQ(sparse.rate_max[j], dense.rate_max[j]);
  }
}

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

TEST(SparseLinearPlantTest, TracksDenseLinearPlantStepwise) {
  const rts::SystemSpec spec = workloads::medium();
  const PlantModel dense = make_plant_model(spec);
  const Vector r0 = spec.initial_rate_vector();
  const Vector gains(dense.num_processors(), 0.8);
  LinearPlant ref(dense, gains, r0);
  SparseLinearPlant sut(sparsify(dense), gains, r0);
  for (std::size_t i = 0; i < gains.size(); ++i)
    EXPECT_DOUBLE_EQ(sut.utilization()[i], ref.utilization()[i]);

  Vector rates = r0;
  for (int k = 0; k < 25; ++k) {
    for (std::size_t j = 0; j < rates.size(); ++j)
      rates[j] = r0[j] * (1.0 + 0.3 * static_cast<double>((k + j) % 5) / 5.0);
    const Vector& u_ref = ref.step(rates);
    const Vector& u_sut = sut.step(rates);
    for (std::size_t i = 0; i < gains.size(); ++i)
      EXPECT_DOUBLE_EQ(u_sut[i], u_ref[i]) << "period " << k << " P" << i;
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
