// The batch experiment engine: serial/parallel determinism, seed
// derivation, and failure propagation.
#include "eucon/experiment.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <set>
#include <stdexcept>

#include "eucon/metrics.h"
#include "eucon/workloads.h"

namespace eucon {
namespace {

ExperimentConfig small_config(double etf, std::uint64_t seed) {
  ExperimentConfig cfg;
  cfg.spec = workloads::simple();
  cfg.mpc = workloads::simple_controller_params();
  cfg.sim.etf = rts::EtfProfile::constant(etf);
  cfg.sim.jitter = 0.1;
  cfg.sim.seed = seed;
  cfg.num_periods = 40;
  return cfg;
}

std::vector<ExperimentSpec> small_grid() {
  std::vector<ExperimentSpec> specs;
  int i = 0;
  for (double etf : {0.4, 0.5, 0.8, 1.2, 2.0, 3.0}) {
    specs.push_back({"etf" + std::to_string(i),
                     small_config(etf, 42 + static_cast<std::uint64_t>(i))});
    ++i;
  }
  return specs;
}

// Bit-identical comparison of two results: every sample of every series
// must match exactly, not within a tolerance — the parallel engine must not
// perturb the computation in any way.
void expect_bit_identical(const ExperimentResult& a, const ExperimentResult& b) {
  ASSERT_EQ(a.trace.size(), b.trace.size());
  for (std::size_t k = 0; k < a.trace.size(); ++k) {
    ASSERT_EQ(a.trace[k].u, b.trace[k].u) << "period " << k;
    ASSERT_EQ(a.trace[k].rates, b.trace[k].rates) << "period " << k;
    ASSERT_EQ(a.trace[k].enabled_tasks, b.trace[k].enabled_tasks);
  }
  EXPECT_EQ(a.set_points.data(), b.set_points.data());
  EXPECT_EQ(a.summary.controller_fallbacks, b.summary.controller_fallbacks);
  EXPECT_EQ(a.summary.lost_reports, b.summary.lost_reports);
  EXPECT_EQ(a.deadlines.e2e_miss_ratio(), b.deadlines.e2e_miss_ratio());
  EXPECT_EQ(a.deadlines.subtask_miss_ratio(), b.deadlines.subtask_miss_ratio());
}

TEST(BatchTest, ParallelMatchesSerialBitIdentical) {
  const auto specs = small_grid();

  BatchOptions serial;
  serial.serial = true;
  const auto base = run_batch(specs, serial);

  BatchOptions pooled;
  pooled.num_workers = 4;
  const auto par = run_batch(specs, pooled);

  ASSERT_EQ(base.size(), specs.size());
  ASSERT_EQ(par.size(), specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i)
    expect_bit_identical(base[i], par[i]);
}

// sim.events_popped counts the DES's work; it depends on config and seed
// only, so repeated runs agree and the pool reproduces the serial count.
TEST(BatchTest, EventsPoppedIsDeterministicSerialAndPooled) {
  const auto specs = small_grid();
  BatchOptions serial;
  serial.serial = true;
  obs::Registry serial_metrics;
  serial.metrics = &serial_metrics;
  const auto a = run_batch(specs, serial);
  BatchOptions serial_again;
  serial_again.serial = true;
  const auto again = run_batch(specs, serial_again);
  BatchOptions pooled;
  pooled.num_workers = 4;
  obs::Registry pooled_metrics;
  pooled.metrics = &pooled_metrics;
  const auto b = run_batch(specs, pooled);
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_GT(a[i].summary.events_popped, a[i].summary.jobs_released);
    EXPECT_EQ(a[i].summary.events_popped, again[i].summary.events_popped);
    EXPECT_EQ(a[i].summary.events_popped, b[i].summary.events_popped);
    total += a[i].summary.events_popped;
  }
  EXPECT_EQ(serial_metrics.counter("sim.events_popped"), total);
  EXPECT_EQ(pooled_metrics.counter("sim.events_popped"), total);
}

TEST(BatchTest, SingleWorkerPoolMatchesSerial) {
  const auto specs = small_grid();
  BatchOptions serial;
  serial.serial = true;
  BatchOptions one;
  one.num_workers = 1;
  const auto a = run_batch(specs, serial);
  const auto b = run_batch(specs, one);
  for (std::size_t i = 0; i < specs.size(); ++i)
    expect_bit_identical(a[i], b[i]);
}

TEST(BatchTest, BatchMatchesDirectRunExperiment) {
  const auto specs = small_grid();
  BatchOptions pooled;
  pooled.num_workers = 2;
  const auto batch = run_batch(specs, pooled);
  for (std::size_t i = 0; i < specs.size(); ++i)
    expect_bit_identical(run_experiment(specs[i].config), batch[i]);
}

TEST(BatchTest, DerivedSeedsAreDistinctAndStable) {
  std::set<std::uint64_t> seeds;
  for (std::size_t i = 0; i < 256; ++i)
    seeds.insert(batch_run_seed(7, i));
  EXPECT_EQ(seeds.size(), 256u);
  // Stable across calls (documented contract: benches can predict seeds).
  EXPECT_EQ(batch_run_seed(7, 3), batch_run_seed(7, 3));
  EXPECT_NE(batch_run_seed(7, 3), batch_run_seed(8, 3));
}

TEST(BatchTest, DeriveSeedsOverridesConfigSeeds) {
  // Two specs with the *same* config (same seed): with derive_seeds the
  // engine must hand them different streams, and the result must equal a
  // direct run with the derived seed plugged in.
  std::vector<ExperimentSpec> specs{{"a", small_config(0.5, 1)},
                                    {"b", small_config(0.5, 1)}};
  BatchOptions opts;
  opts.derive_seeds = true;
  opts.seed_base = 99;
  opts.num_workers = 2;
  const auto results = run_batch(specs, opts);

  auto direct0 = specs[0].config;
  direct0.sim.seed = batch_run_seed(99, 0);
  expect_bit_identical(run_experiment(direct0), results[0]);

  bool any_diff = false;
  for (std::size_t k = 0; k < results[0].trace.size(); ++k)
    if (results[0].trace[k].u != results[1].trace[k].u) any_diff = true;
  EXPECT_TRUE(any_diff) << "derived seeds produced identical jitter streams";
}

TEST(BatchTest, EmptyBatchIsFine) {
  EXPECT_TRUE(run_batch(std::vector<ExperimentSpec>{}).empty());
}

TEST(BatchTest, RunFailurePropagatesFirstInSpecOrder) {
  auto bad = small_config(0.5, 1);
  bad.num_periods = 0;  // rejected by run_experiment's preconditions
  std::vector<ExperimentSpec> specs{{"ok", small_config(0.5, 1)},
                                    {"bad", bad},
                                    {"ok2", small_config(0.6, 2)}};
  BatchOptions opts;
  opts.num_workers = 2;
  EXPECT_THROW(run_batch(specs, opts), std::invalid_argument);
}

TEST(BatchTest, ProgressCallbackCountsEveryRunExactlyOnce) {
  const auto specs = small_grid();
  BatchOptions opts;
  opts.num_workers = 3;
  // Calls are serialized under the engine's internal mutex, so appending
  // without extra synchronization is safe and the sequence must be exactly
  // 1..N with a constant total.
  std::vector<std::size_t> completed;
  std::vector<std::size_t> totals;
  opts.on_progress = [&](std::size_t done, std::size_t total) {
    completed.push_back(done);
    totals.push_back(total);
  };
  const auto results = run_batch(specs, opts);
  ASSERT_EQ(results.size(), specs.size());
  ASSERT_EQ(completed.size(), specs.size());
  for (std::size_t i = 0; i < completed.size(); ++i) {
    EXPECT_EQ(completed[i], i + 1);
    EXPECT_EQ(totals[i], specs.size());
  }
}

TEST(BatchTest, ProgressCallbackFiresOnSerialPathToo) {
  const auto specs = small_grid();
  BatchOptions opts;
  opts.serial = true;
  std::vector<std::size_t> completed;
  opts.on_progress = [&](std::size_t done, std::size_t) {
    completed.push_back(done);
  };
  (void)run_batch(specs, opts);
  ASSERT_EQ(completed.size(), specs.size());
  for (std::size_t i = 0; i < completed.size(); ++i)
    EXPECT_EQ(completed[i], i + 1);
}

TEST(BatchTest, ProgressCallbackDoesNotPerturbResults) {
  const auto specs = small_grid();
  BatchOptions plain;
  plain.num_workers = 2;
  BatchOptions with_progress;
  with_progress.num_workers = 2;
  with_progress.on_progress = [](std::size_t, std::size_t) {};
  const auto a = run_batch(specs, plain);
  const auto b = run_batch(specs, with_progress);
  for (std::size_t i = 0; i < specs.size(); ++i)
    expect_bit_identical(a[i], b[i]);
}

TEST(BatchTest, ConfigVectorOverload) {
  std::vector<ExperimentConfig> configs{small_config(0.5, 1),
                                        small_config(0.8, 2)};
  const auto results = run_batch(configs);
  ASSERT_EQ(results.size(), 2u);
  for (const auto& r : results) EXPECT_EQ(r.trace.size(), 40u);
}

}  // namespace
}  // namespace eucon
