// Proves the allocation-free steady-state contract of the sharded
// controller under both sweeps — Jacobi (DEUCON) and Gauss–Seidel (HIER):
// once construction and a warm-up stretch have grown every buffer (shard
// gather scratch, QP workspace, warm-start working sets) to its high-water
// mark, a sampling period's update() — row gather, local MPC solves, rate
// scatter included — touches the heap exactly zero times.
//
// The proof instrument is a replacement global operator new in this TU
// (same idiom as qp_alloc_test; it stays a separate binary so the hook
// never colors another test's measurements).
#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

#include <gtest/gtest.h>

#include "control/hierarchical.h"
#include "control/model.h"
#include "control/sparse_model.h"
#include "eucon/workloads.h"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::size_t> g_allocs{0};

void* counted_alloc(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed))
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (size == 0) size = 1;
  void* p = std::malloc(size);
  // Allocation failure in a unit test is unrecoverable; abort instead of
  // throwing so this TU stays clear of the raw-throw rule.
  if (p == nullptr) std::abort();
  return p;
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace eucon::control {
namespace {

using linalg::Vector;

struct CountScope {
  CountScope() {
    g_allocs.store(0);
    g_counting.store(true);
  }
  ~CountScope() { g_counting.store(false); }
  static std::size_t count() { return g_allocs.load(); }
};

// Jiggle one measurement around its set point so every counted update does
// real control work (nonzero error, moving optimum) without the test side
// touching the heap.
void perturb(Vector& u, const Vector& b, int k) {
  u[0] = b[0] + 0.02 * static_cast<double>(k % 3 - 1);
}

TEST(DecentralizedAllocTest, UpdateIsAllocationFreeAfterWarmup) {
  const PlantModel model = make_plant_model(workloads::medium());
  const Vector r0 = workloads::medium().initial_rate_vector();
  const auto ctrl = HierarchicalMpcController::decentralized(
      sparsify(model), workloads::medium_controller_params(), r0);

  Vector u = model.b;  // start on target, then jiggle around it
  // Warm-up walks the same perturbation cycle the counted phase uses, so
  // every working-set size and scratch capacity has already been seen.
  for (int k = 0; k < 40; ++k) {
    perturb(u, model.b, k);
    ctrl->update(u);
  }

  {
    const CountScope scope;
    for (int k = 0; k < 50; ++k) {
      perturb(u, model.b, k);
      ctrl->update(u);
    }
  }
  EXPECT_EQ(CountScope::count(), 0u);
}

TEST(DecentralizedAllocTest, HierarchicalUpdateIsAllocationFreeAfterWarmup) {
  workloads::ChainClusterParams params;
  params.num_processors = 32;
  params.tasks_per_processor = 2;
  params.chain_length = 3;
  const rts::SystemSpec spec = workloads::chain_cluster(params, 17);
  const SparsePlantModel model = make_sparse_plant_model(spec);
  MpcParams mpc;
  mpc.prediction_horizon = 2;
  mpc.control_horizon = 1;
  HierarchicalParams hier;
  hier.shard_size = 8;
  HierarchicalMpcController ctrl(model, mpc, hier,
                                 spec.initial_rate_vector());

  Vector u = model.b;
  for (int k = 0; k < 40; ++k) {
    perturb(u, model.b, k);
    ctrl.update(u);
  }

  {
    const CountScope scope;
    for (int k = 0; k < 50; ++k) {
      perturb(u, model.b, k);
      ctrl.update(u);
    }
  }
  EXPECT_EQ(CountScope::count(), 0u);
}

}  // namespace
}  // namespace eucon::control
