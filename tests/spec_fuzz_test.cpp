// Fuzz-ish robustness, two sweeps:
//  - spec parser: random corruptions of a valid file must either parse to
//    a valid spec or throw std::invalid_argument — never crash, hang, or
//    return an invalid spec;
//  - closed loop under observation: random valid workloads run under each
//    QP-backed controller with a MemorySink + Registry attached, and the
//    structured trace must satisfy the per-period invariants of
//    docs/observability.md (rate bounds, Δr bookkeeping, monotone
//    timestamps, trace/summary/result/registry totals all agreeing).
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "common/rng.h"
#include "eucon/eucon.h"
#include "eucon/workloads.h"
#include "rts/spec_io.h"

namespace eucon::rts {
namespace {

std::string valid_text() {
  std::ostringstream out;
  save_spec(workloads::medium(), out);
  return out.str();
}

class SpecFuzz : public ::testing::TestWithParam<int> {};

TEST_P(SpecFuzz, MutatedInputNeverCrashes) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 5923 + 1);
  std::string text = valid_text();

  // Apply a handful of random mutations.
  const int mutations = 1 + GetParam() % 5;
  for (int m = 0; m < mutations; ++m) {
    const auto pos =
        static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(text.size()) - 1));
    switch (rng.uniform_int(0, 3)) {
      case 0:  // flip a character
        text[pos] = static_cast<char>(rng.uniform_int(32, 126));
        break;
      case 1:  // delete a span
        text.erase(pos, static_cast<std::size_t>(rng.uniform_int(1, 20)));
        break;
      case 2:  // duplicate a span
        text.insert(pos, text.substr(pos, static_cast<std::size_t>(
                                              rng.uniform_int(1, 30))));
        break;
      case 3:  // inject garbage token
        text.insert(pos, " -9e99 \t nan ");
        break;
    }
  }

  std::istringstream in(text);
  try {
    const SystemSpec spec = load_spec(in);
    // If it parsed, it must be a *valid* spec.
    EXPECT_NO_THROW(spec.validate());
  } catch (const std::invalid_argument&) {
    // Rejection is the expected outcome for most mutations.
  } catch (const std::exception& e) {
    FAIL() << "unexpected exception type: " << e.what();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SpecFuzz, ::testing::Range(1, 61));

TEST(SpecFuzzTest, HugeNumbersRejectedOrHandled) {
  std::istringstream in(
      "processors 1\n"
      "task A max_period 1e308 min_period 1e-308 initial_period 1\n"
      "  subtask 0 1e308\n");
  try {
    const SystemSpec s = load_spec(in);
    s.validate();
  } catch (const std::invalid_argument&) {
  }
}

TEST(SpecFuzzTest, VeryLongInputTerminates) {
  std::ostringstream big;
  big << "processors 2\n";
  for (int i = 0; i < 5000; ++i) {
    big << "task T" << i << " max_period 100 min_period 10 initial_period 50\n"
        << "  subtask " << (i % 2) << " 5\n";
  }
  std::istringstream in(big.str());
  const SystemSpec s = load_spec(in);
  EXPECT_EQ(s.num_tasks(), 5000u);
}

}  // namespace
}  // namespace eucon::rts

namespace eucon {
namespace {

// One fuzzed closed-loop run per seed: a random valid workload, short
// horizon, randomized environment, full observability attached. The seed
// also picks the controller (EUCON, EUCON-A, HIER with one- or
// two-processor shards, DEUCON) without changing the workload draws.
class ObsInvariantFuzz : public ::testing::TestWithParam<int> {};

TEST_P(ObsInvariantFuzz, TraceSatisfiesPerPeriodInvariants) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  Rng rng(seed * 7919 + 3);

  workloads::RandomWorkloadParams params;
  params.num_processors = static_cast<int>(rng.uniform_int(2, 4));
  params.num_tasks = static_cast<int>(rng.uniform_int(2, 6));
  params.max_chain = 3;

  ExperimentConfig cfg;
  cfg.spec = workloads::random_workload(params, seed);
  cfg.mpc = workloads::medium_controller_params();
  cfg.sim.seed = seed;
  cfg.sim.jitter = rng.uniform(0.0, 0.3);
  cfg.sim.etf = rts::EtfProfile::constant(rng.uniform(0.3, 2.0));
  cfg.report_loss_probability = rng.next_double() < 0.5 ? 0.15 : 0.0;
  cfg.num_periods = static_cast<int>(rng.uniform_int(5, 15));
  cfg.run_name = "fuzz-" + std::to_string(seed);
  const ControllerKind kinds[] = {
      ControllerKind::kEucon, ControllerKind::kAdaptive,
      ControllerKind::kHierarchical, ControllerKind::kDecentralized};
  cfg.controller = kinds[seed % 4];
  cfg.hier.shard_size = 1 + seed / 4 % 2;
  const bool sharded = cfg.controller == ControllerKind::kHierarchical ||
                       cfg.controller == ControllerKind::kDecentralized;

  obs::MemorySink sink;
  obs::Registry registry;
  cfg.trace_sink = &sink;
  cfg.metrics = &registry;
  const ExperimentResult res = run_experiment(cfg);

  const std::size_t np = static_cast<std::size_t>(params.num_processors);
  const std::size_t nt = cfg.spec.num_tasks();
  ASSERT_TRUE(sink.finished());
  EXPECT_EQ(sink.info().num_processors, np);
  EXPECT_EQ(sink.info().num_tasks, nt);
  EXPECT_EQ(sink.info().seed, seed);
  ASSERT_EQ(sink.records().size(), static_cast<std::size_t>(cfg.num_periods));

  const linalg::Vector rmin = cfg.spec.rate_min_vector();
  const linalg::Vector rmax = cfg.spec.rate_max_vector();

  std::uint64_t lost_sum = 0, stall_sum = 0, qp_iter_sum = 0;
  std::uint64_t fast_path_sum = 0, fallback_sum = 0;
  double prev_t = 0.0;
  const std::vector<double>* prev_rates = nullptr;
  for (const obs::PeriodRecord& rec : sink.records()) {
    const int k = rec.k;
    ASSERT_GE(k, 1);
    // Timestamps: strictly monotone and exactly on the sampling grid.
    EXPECT_GT(rec.time_units, prev_t) << "k=" << k;
    EXPECT_NEAR(rec.time_units, static_cast<double>(k) * cfg.sampling_period,
                1e-9)
        << "k=" << k;
    prev_t = rec.time_units;

    ASSERT_EQ(rec.u.size(), np);
    ASSERT_EQ(rec.u_seen.size(), np);
    ASSERT_EQ(rec.rates.size(), nt);
    ASSERT_EQ(rec.delta_r.size(), nt);
    for (double u : rec.u) {
      EXPECT_TRUE(std::isfinite(u)) << "k=" << k;
      EXPECT_GE(u, 0.0) << "k=" << k;
    }
    for (std::size_t j = 0; j < nt; ++j) {
      // Rates the controller applies must respect the task's bounds.
      EXPECT_GE(rec.rates[j], rmin[j] - 1e-12) << "k=" << k << " task " << j;
      EXPECT_LE(rec.rates[j], rmax[j] + 1e-12) << "k=" << k << " task " << j;
      // Δr bookkeeping: dr is exactly the step from the previous record.
      if (prev_rates != nullptr) {
        EXPECT_EQ(rec.delta_r[j], rec.rates[j] - (*prev_rates)[j])
            << "k=" << k << " task " << j;
      }
      EXPECT_TRUE(std::isfinite(rec.delta_r[j])) << "k=" << k;
    }
    prev_rates = &rec.rates;

    // The QP block is present for every QP controller and self-consistent.
    ASSERT_GE(rec.qp_iterations, 0) << "k=" << k;
    if (rec.qp_fast_path) {
      EXPECT_EQ(rec.qp_iterations, 0) << "k=" << k;
    }
    EXPECT_FALSE(rec.qp_status.empty()) << "k=" << k;
    if (sharded) {
      EXPECT_TRUE(rec.qp_active_set.empty()) << "k=" << k;
    }

    lost_sum += rec.lost_reports;
    stall_sum += rec.release_guard_stalls;
    qp_iter_sum += static_cast<std::uint64_t>(rec.qp_iterations);
    if (rec.qp_fast_path) ++fast_path_sum;
    if (rec.qp_fallback) ++fallback_sum;
  }

  // Trace-derived totals, the summary record, the experiment result, and
  // the counter registry must all tell the same story.
  const obs::RunSummary& sum = sink.summary();
  EXPECT_EQ(sum.periods, static_cast<std::uint64_t>(cfg.num_periods));
  EXPECT_EQ(sum.lost_reports, lost_sum);
  EXPECT_EQ(sum.release_guard_stalls, stall_sum);
  EXPECT_EQ(sum.controller_updates,
            static_cast<std::uint64_t>(cfg.num_periods));
  EXPECT_EQ(sum.qp_iterations_total, qp_iter_sum);
  EXPECT_EQ(sum.qp_fast_path_hits, fast_path_sum);
  EXPECT_EQ(sum.controller_fallbacks, fallback_sum);
  EXPECT_EQ(obs::to_jsonl(res.summary), obs::to_jsonl(sum));
  EXPECT_EQ(res.summary.controller_updates, sum.controller_updates);

  EXPECT_EQ(registry.counter("experiment.runs"), 1u);
  EXPECT_EQ(registry.counter("experiment.periods"),
            static_cast<std::uint64_t>(cfg.num_periods));
  EXPECT_EQ(registry.counter("experiment.lost_reports"), lost_sum);
  EXPECT_EQ(registry.counter("sim.release_guard_stalls"), stall_sum);
  EXPECT_EQ(registry.counter("mpc.qp_iterations"), qp_iter_sum);
  EXPECT_EQ(registry.counter("mpc.fast_path_hits"), fast_path_sum);
  EXPECT_EQ(registry.counter("mpc.fallbacks"), fallback_sum);
  EXPECT_EQ(registry.counter("mpc.updates"),
            static_cast<std::uint64_t>(cfg.num_periods));
  EXPECT_EQ(registry.counter("sim.jobs_released"), sum.jobs_released);
  // Timers fired once per period on the instrumented hot paths; the
  // per-solve timers belong to the central MPC alone.
  const std::uint64_t periods = static_cast<std::uint64_t>(cfg.num_periods);
  const std::uint64_t solves =
      cfg.controller == ControllerKind::kEucon ? periods : 0;
  EXPECT_EQ(registry.timer("experiment.period").count, periods);
  EXPECT_EQ(registry.timer("mpc.update").count, solves);
  EXPECT_EQ(registry.timer("qp.solve").count, solves);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ObsInvariantFuzz, ::testing::Range(1, 201));

}  // namespace
}  // namespace eucon

