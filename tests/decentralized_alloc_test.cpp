// Heap-traffic proofs for the closed loop, through one replacement global
// operator new (same idiom as qp_alloc_test; it stays a separate binary so
// the hook never colors another test's measurements):
//
//   * the sharded controller's steady state is allocation-free under both
//     sweeps — Jacobi (DEUCON) and Gauss–Seidel (HIER): once construction
//     and a warm-up stretch have grown every buffer (shard gather scratch,
//     QP workspace, the factors each shard's solver carries from period to
//     period) to its high-water mark, a sampling period's update() touches
//     the heap exactly zero times, resumed solves included;
//   * run_experiment builds the plant model in CSR: a sharded run never
//     allocates a block the size of the dense n×m F;
//   * the simulator frees each requested rate vector once it is applied,
//     so the live heap stays flat over a long run;
//   * the simulator's event loop is allocation-free in steady state: once
//     the job pool, event heap, ready heaps and release-guard FIFOs have
//     reached their high-water marks, run_until touches the heap zero
//     times, and neither do sample_utilizations_into and set_rates.
#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <new>

#include <gtest/gtest.h>

#include "control/hierarchical.h"
#include "control/model.h"
#include "control/sparse_model.h"
#include "eucon/experiment.h"
#include "eucon/workloads.h"
#include "rts/simulator.h"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::size_t> g_allocs{0};
std::atomic<std::size_t> g_largest{0};     // largest block while counting
std::atomic<std::size_t> g_live_bytes{0};  // requested bytes not yet freed

// Every block carries its size in a header, so delete can debit the live
// total whichever operator delete overload frees it.
constexpr std::size_t kHeader = alignof(std::max_align_t);

void* counted_alloc(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    std::size_t largest = g_largest.load(std::memory_order_relaxed);
    while (size > largest &&
           !g_largest.compare_exchange_weak(largest, size,
                                            std::memory_order_relaxed)) {
    }
  }
  g_live_bytes.fetch_add(size, std::memory_order_relaxed);
  auto* base = static_cast<unsigned char*>(std::malloc(size + kHeader));
  // Allocation failure in a unit test is unrecoverable; abort instead of
  // throwing so this TU stays clear of the raw-throw rule.
  if (base == nullptr) std::abort();
  std::memcpy(base, &size, sizeof size);
  return base + kHeader;
}

void counted_free(void* p) noexcept {
  if (p == nullptr) return;
  unsigned char* base = static_cast<unsigned char*>(p) - kHeader;
  std::size_t size = 0;
  std::memcpy(&size, base, sizeof size);
  g_live_bytes.fetch_sub(size, std::memory_order_relaxed);
  std::free(base);
}

}  // namespace

// The nothrow forms are replaced too: std::stable_sort takes its buffer
// through them, and a sanitizer runtime would otherwise serve them without
// the size header.
void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}
void operator delete(void* p) noexcept { counted_free(p); }
void operator delete[](void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  counted_free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  counted_free(p);
}

namespace eucon::control {
namespace {

using linalg::Vector;

struct CountScope {
  CountScope() {
    g_allocs.store(0);
    g_largest.store(0);
    g_counting.store(true);
  }
  ~CountScope() { g_counting.store(false); }
  static std::size_t count() { return g_allocs.load(); }
  static std::size_t largest() { return g_largest.load(); }
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

// Swings a rotating quarter of the processors between overload and
// underload, so shard QPs keep rows active from period to period and also
// change them: every period resumes from the last one's factor, drops the
// rows that left and adds the ones that entered.
void swing(Vector& u, const Vector& b, int k) {
  for (std::size_t p = 0; p < u.size(); ++p) {
    const bool hit = (p + static_cast<std::size_t>(k)) % 4 == 0;
    u[p] = std::min(1.0, b[p] * (hit ? (k % 2 == 0 ? 1.3 : 0.6) : 1.05));
  }
}

// Both sweeps with shard QPs that carry their factor through real work:
// rows stay active across periods, so the counted periods resume, drop and
// add (the counted region must see non-fast-path periods and iterations).
TEST(DecentralizedAllocTest, WarmStartedShardSolvesAreAllocationFree) {
  workloads::ChainClusterParams params;
  params.num_processors = 32;
  params.tasks_per_processor = 2;
  params.chain_length = 3;
  const rts::SystemSpec spec = workloads::chain_cluster(params, 17);
  const SparsePlantModel model = make_sparse_plant_model(spec);
  MpcParams mpc;
  mpc.prediction_horizon = 2;
  mpc.control_horizon = 1;
  // cluster_des's setting: with no utilization rows, no period falls back,
  // so no template switch sends a shard back to J0.
  mpc.constraint_mode = ConstraintMode::kSoftOnly;
  HierarchicalParams hier;
  hier.shard_size = 8;
  HierarchicalMpcController hier_ctrl(model, mpc, hier,
                                      spec.initial_rate_vector());
  const auto deucon = HierarchicalMpcController::decentralized(
      model, mpc, spec.initial_rate_vector());

  for (Controller* ctrl : {static_cast<Controller*>(&hier_ctrl),
                           static_cast<Controller*>(deucon.get())}) {
    Vector u = model.b;
    for (int k = 0; k < 40; ++k) {
      swing(u, model.b, k);
      ctrl->update(u);
    }
    std::uint64_t solved_periods = 0;
    const std::uint64_t iterations_before = ctrl->diagnostics()->qp_iterations;
    {
      const CountScope scope;
      for (int k = 40; k < 90; ++k) {
        swing(u, model.b, k);
        ctrl->update(u);
        if (!ctrl->diagnostics()->fast_path) ++solved_periods;
      }
    }
    EXPECT_EQ(CountScope::count(), 0u) << ctrl->name();
    EXPECT_EQ(solved_periods, 50u) << ctrl->name();
    EXPECT_GT(ctrl->diagnostics()->qp_iterations, iterations_before + 50)
        << ctrl->name();
  }
}

// chain_cluster at n = 512 (m = 1024) under both sharded controllers: the
// dense F would be one block of n·m doubles (4 MiB); nothing the CSR model,
// the shards, the simulator or the trace allocate comes close.
TEST(ExperimentAllocTest, ShardedRunsNeverAllocateTheDenseModel) {
  workloads::ChainClusterParams params;
  params.num_processors = 512;
  params.tasks_per_processor = 2;
  params.chain_length = 3;
  params.subtask_decay = 0.15;
  ExperimentConfig cfg;
  cfg.spec = workloads::chain_cluster(params, 4100);
  cfg.mpc.prediction_horizon = 2;
  cfg.mpc.control_horizon = 1;
  cfg.mpc.constraint_mode = ConstraintMode::kSoftOnly;
  cfg.num_periods = 2;
  const std::size_t dense_bytes =
      static_cast<std::size_t>(params.num_processors) * cfg.spec.num_tasks() *
      sizeof(double);
  ASSERT_EQ(cfg.spec.num_tasks(), 1024u);

  for (const ControllerKind kind :
       {ControllerKind::kHierarchical, ControllerKind::kDecentralized}) {
    cfg.controller = kind;
    std::size_t largest = 0;
    {
      const CountScope scope;
      const ExperimentResult r = run_experiment(cfg);
      largest = CountScope::largest();
      ASSERT_EQ(r.trace.size(), 2u);
    }
    EXPECT_LT(largest, dense_bytes) << controller_kind_name(kind);
  }
}

// 1,000 extra periods of run → sample → set_rates on MEDIUM. Each request
// is m doubles; a store that kept them would grow the live heap by at
// least 1000·m·8 bytes. The allowance covers jobs in flight, which differ
// from one sampling instant to the next.
TEST(SimulatorHeapTest, LiveHeapStaysFlatUnderRateRequests) {
  const rts::SystemSpec spec = workloads::medium();
  rts::SimOptions opts;
  opts.jitter = 0.1;
  rts::Simulator sim(spec, opts);
  std::vector<double> rates = spec.initial_rate_vector().data();
  const Ticks ts = units_to_ticks(1000.0);
  Ticks t = 0;
  const auto period = [&](int k) {
    t += ts;
    sim.run_until(t);
    (void)sim.sample_utilizations();
    rates[0] =
        spec.tasks[0].rate_min * (1.5 + 0.5 * static_cast<double>(k % 3));
    sim.set_rates(rates);
  };
  for (int k = 0; k < 200; ++k) period(k);
  const std::size_t before = g_live_bytes.load();
  for (int k = 0; k < 1000; ++k) period(k);
  const std::size_t after = g_live_bytes.load();
  const std::size_t allowance = 100 * spec.num_tasks() * sizeof(double);
  EXPECT_LT(after, before + allowance)
      << "live heap grew by " << after - before << " bytes";
}

// MEDIUM and chain_cluster n = 64 at jitter 0.1, with new rates every
// period: 200 warm-up periods, then 500 periods in which only run_until
// is counted. Each released job used to cost a Job allocation and a hash
// node; now it reuses a pooled slot.
//
// Every period's rate change re-anchors every task's release and re-keys
// every ready heap; task 0's rate cycles as in the test above. The walk
// does not keep lowering every task's rate: the release guard implements
// Sun & Liu's first rule only (no reset at idle points), so each drop of
// a task's rate strands guard entries that never drain, and the FIFOs and
// the event heap then grow with that live backlog (chain_cluster n = 64
// under an all-task rate cycle: +5 open instances per period).
TEST(SimulatorHeapTest, RunUntilAllocatesNothingAfterWarmup) {
  workloads::ChainClusterParams cluster;
  cluster.num_processors = 64;
  cluster.subtask_decay = 0.15;
  const rts::SystemSpec specs[] = {workloads::medium(),
                                   workloads::chain_cluster(cluster, 64)};
  for (const rts::SystemSpec& spec : specs) {
    rts::SimOptions opts;
    opts.jitter = 0.1;
    rts::Simulator sim(spec, opts);
    std::vector<double> rates = spec.initial_rate_vector().data();
    const Ticks ts = units_to_ticks(1000.0);
    Ticks t = 0;
    std::size_t counted = 0;
    std::uint64_t jobs_counted = 0;
    const auto period = [&](int k, bool count) {
      t += ts;
      if (count) {
        const std::uint64_t jobs0 = sim.jobs_released();
        const CountScope scope;
        sim.run_until(t);
        counted += CountScope::count();
        jobs_counted += sim.jobs_released() - jobs0;
      } else {
        sim.run_until(t);
      }
      (void)sim.sample_utilizations();
      rates[0] =
          spec.tasks[0].rate_min * (1.5 + 0.5 * static_cast<double>(k % 3));
      sim.set_rates(rates);
    };
    for (int k = 0; k < 200; ++k) period(k, false);
    for (int k = 200; k < 700; ++k) period(k, true);
    EXPECT_GT(jobs_counted, 10000u) << spec.num_processors << " processors";
    EXPECT_EQ(counted, 0u) << spec.num_processors << " processors: "
                           << counted << " allocations over " << jobs_counted
                           << " jobs";
  }
}

// The simulator's whole share of a period, counted: run_until,
// sample_utilizations_into (into a vector kept across periods) and
// set_rates, whose request is copied into a reused ring of pending
// buffers. At lane delay 0 a request fires at the next period's first
// instant; at 250 a quarter period after it is made. 200 warm-up periods,
// then 500 counted ones.
TEST(SimulatorHeapTest, RatePathAllocatesNothingAfterWarmup) {
  const rts::SystemSpec spec = workloads::medium();
  for (const double delay : {0.0, 250.0}) {
    rts::SimOptions opts;
    opts.jitter = 0.1;
    opts.feedback_lane_delay = delay;
    rts::Simulator sim(spec, opts);
    std::vector<double> rates = spec.initial_rate_vector().data();
    std::vector<double> u;
    const Ticks ts = units_to_ticks(1000.0);
    std::size_t counted = 0;
    for (int k = 1; k <= 700; ++k) {
      rates[0] =
          spec.tasks[0].rate_min * (1.5 + 0.5 * static_cast<double>(k % 3));
      const CountScope scope;
      sim.run_until(static_cast<Ticks>(k) * ts);
      sim.sample_utilizations_into(u);
      sim.set_rates(rates);
      if (k > 200) counted += CountScope::count();
    }
    EXPECT_EQ(u.size(), static_cast<std::size_t>(spec.num_processors));
    EXPECT_EQ(counted, 0u) << "lane delay " << delay << ": " << counted
                           << " allocations over 500 periods";
  }
}

}  // namespace
}  // namespace eucon::control
