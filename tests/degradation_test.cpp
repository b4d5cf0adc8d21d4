// Graceful degradation: the controller-blackout watchdog, the per-lane
// staleness fallback into the MPC tracked set, the acceptance demo scenario
// (docs/robustness.md), and the observability contract for faulted runs —
// counters equal trace-derived totals, and a faulted run under run_batch is
// byte-identical between the serial and the pooled path.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "eucon/eucon.h"

namespace eucon {
namespace {

// The checked-in examples/fault_plans/blackout_demo.json scenario: lane 0
// goes dark from period 5 for 50 periods, the controller blacks out at
// period 60 for 10. Inlined so the test does not depend on the working
// directory.
const char* const kDemoPlanJson = R"({
  "seed": 7,
  "lane_outages": [{"lane": 0, "start": 5, "duration": 50}],
  "controller_blackouts": [{"start": 60, "duration": 10}]
})";

ExperimentConfig demo_config() {
  ExperimentConfig cfg;
  cfg.spec = workloads::medium();
  cfg.mpc = workloads::medium_controller_params();
  cfg.sim.etf = rts::EtfProfile::constant(0.8);
  cfg.sim.jitter = 0.1;
  cfg.sim.seed = 1;
  cfg.num_periods = 120;
  cfg.faults = faults::parse_fault_plan(kDemoPlanJson);
  return cfg;
}

// Max measured utilization of `processor` over 1-based periods [from, to].
double max_u(const ExperimentResult& res, std::size_t processor, int from,
             int to) {
  double m = 0.0;
  for (const SampleRecord& rec : res.trace)
    if (rec.k >= from && rec.k <= to) m = std::max(m, rec.u[processor]);
  return m;
}

TEST(DegradationTest, DemoScenarioDriftsWithoutDegradation) {
  const ExperimentResult res = run_experiment(demo_config());

  // The frozen lane-0 report reads below the set point forever, so the
  // MPC's integral action ramps every lane-0 task until the processor
  // saturates — the unbounded drift the watchdog exists to stop.
  EXPECT_GT(max_u(res, 0, 25, 54), 0.99);
  EXPECT_GT(res.deadlines.e2e_miss_ratio(), 0.1);
  EXPECT_GT(res.summary.controller_fallbacks, 0u);

  // Fault accounting: 50 outage periods on one lane, a 10-period blackout,
  // and no degradation machinery engaged.
  EXPECT_EQ(res.summary.forced_losses, 50u);
  EXPECT_EQ(res.summary.blackout_periods, 10u);
  EXPECT_EQ(res.summary.max_staleness, 50);
  EXPECT_EQ(res.summary.stale_drops, 0u);
  EXPECT_EQ(res.summary.stale_restores, 0u);
}

TEST(DegradationTest, DemoScenarioBoundedUnderDegradation) {
  const faults::DegradePolicy policies[] = {
      faults::DegradePolicy::kHoldRates, faults::DegradePolicy::kOpenLoop,
      faults::DegradePolicy::kDecentralized};
  for (faults::DegradePolicy policy : policies) {
    ExperimentConfig cfg = demo_config();
    cfg.degrade.policy = policy;
    cfg.degrade.stale_limit = 3;
    const ExperimentResult res = run_experiment(cfg);
    const char* name = faults::degrade_policy_name(policy);

    // Bounded: no processor saturates at any point, every processor meets
    // the paper's acceptability criterion, and no end-to-end deadline is
    // missed — under the exact faults that drove the undegraded run to
    // 100% utilization and >10% misses.
    EXPECT_LT(max_u(res, 0, 1, cfg.num_periods), 0.9) << name;
    for (std::size_t p = 0; p < 4; ++p) {
      const auto a = metrics::acceptability(res, p);
      EXPECT_TRUE(a.acceptable())
          << name << " P" << p + 1 << " mean " << a.mean;
    }
    EXPECT_DOUBLE_EQ(res.deadlines.e2e_miss_ratio(), 0.0) << name;

    // The stale lane is dropped once, restored once when its outage ends.
    EXPECT_EQ(res.summary.forced_losses, 50u) << name;
    EXPECT_EQ(res.summary.blackout_periods, 10u) << name;
    EXPECT_EQ(res.summary.stale_drops, 1u) << name;
    EXPECT_EQ(res.summary.stale_restores, 1u) << name;
    EXPECT_EQ(res.summary.max_staleness, 50) << name;
  }
}

TEST(DegradationTest, WatchdogEngagesAndRecovers) {
  ExperimentConfig cfg;
  cfg.spec = workloads::simple();
  cfg.mpc = workloads::simple_controller_params();
  cfg.sim.etf = rts::EtfProfile::constant(0.5);
  cfg.sim.jitter = 0.1;
  cfg.sim.seed = 42;
  cfg.num_periods = 30;
  cfg.faults.lane_outages.push_back({1, 10, 5});  // lane 1 down, k = 10..14
  cfg.degrade.stale_limit = 2;

  std::ostringstream out;
  obs::JsonlSink sink(out);
  if (obs::kEnabled) cfg.trace_sink = &sink;
  const ExperimentResult res = run_experiment(cfg);

  // Staleness hits the limit at k = 11 (second consecutive loss), so the
  // lane leaves the tracked set for k = 11..14 and returns with the first
  // delivery at k = 15: one drop, one restore, worst streak 5.
  EXPECT_EQ(res.summary.stale_drops, 1u);
  EXPECT_EQ(res.summary.stale_restores, 1u);
  EXPECT_EQ(res.summary.max_staleness, 5);
  EXPECT_EQ(res.summary.forced_losses, 5u);
  EXPECT_EQ(res.summary.blackout_periods, 0u);

  if (obs::kEnabled) {
    int dropped_periods = 0;
    std::istringstream lines(out.str());
    std::string line;
    while (std::getline(lines, line))
      if (line.find("\"tracked\":1") != std::string::npos) ++dropped_periods;
    EXPECT_EQ(dropped_periods, 4);
  }
}

TEST(DegradationTest, DegradeRequiresEuconController) {
  ExperimentConfig cfg;
  cfg.spec = workloads::simple();
  cfg.controller = ControllerKind::kPid;
  cfg.degrade.policy = faults::DegradePolicy::kHoldRates;
  cfg.num_periods = 5;
  EXPECT_THROW((void)run_experiment(cfg), std::invalid_argument);
}

TEST(DegradationTest, TotalActuationOutageFreezesRates) {
  // With every owning processor's command channel down for the whole run,
  // no rate command ever reaches the plant: applied rates stay at the
  // initial design rates even though the controller keeps computing.
  ExperimentConfig cfg;
  cfg.spec = workloads::simple();
  cfg.mpc = workloads::simple_controller_params();
  cfg.sim.etf = rts::EtfProfile::constant(0.5);
  cfg.sim.seed = 11;
  cfg.num_periods = 40;
  for (int p = 0; p < cfg.spec.num_processors; ++p)
    cfg.faults.actuation_outages.push_back({p, 1, cfg.num_periods});
  const ExperimentResult res = run_experiment(cfg);

  const linalg::Vector r0 = cfg.spec.initial_rate_vector();
  for (const SampleRecord& rec : res.trace)
    for (std::size_t j = 0; j < rec.rates.size(); ++j)
      ASSERT_DOUBLE_EQ(rec.rates[j], r0[j]) << "k=" << rec.k;
  EXPECT_GT(res.summary.actuation_lost, 0u);
}

TEST(DegradationTest, ActuationDelayPostponesFirstCommand) {
  // With delay d, the command computed at period k lands at period k + d:
  // the applied rates stay at the initial design rates for the first d
  // periods, then follow the controller's schedule shifted by d.
  ExperimentConfig base;
  base.spec = workloads::simple();
  base.mpc = workloads::simple_controller_params();
  base.sim.etf = rts::EtfProfile::constant(0.5);
  base.sim.seed = 11;
  base.sim.jitter = 0.0;  // same measurements regardless of rate history
  base.num_periods = 6;

  ExperimentConfig delayed = base;
  delayed.faults.actuation_delay = 3;
  // An empty plan skips the actuation pipeline entirely; keep it non-empty.
  delayed.faults.actuation_outages.push_back({0, 1000, 1});
  const ExperimentResult res = run_experiment(delayed);

  const linalg::Vector r0 = base.spec.initial_rate_vector();
  for (int k = 1; k <= 3; ++k)
    for (std::size_t j = 0; j < r0.size(); ++j)
      ASSERT_DOUBLE_EQ(res.trace[k - 1].rates[j], r0[j]) << "k=" << k;
  // From k = 4 on, commands arrive (three periods late) and move the rates.
  EXPECT_NE(res.trace[3].rates, res.trace[0].rates);
}

// ---------------------------------------------------------------------------
// Observability contract for faulted runs.
// ---------------------------------------------------------------------------

// Extracts the integer following `key` (e.g. "\"forced\":") in `line`;
// returns 0 when absent.
std::uint64_t extract_u64(const std::string& line, const std::string& key) {
  const std::size_t at = line.find(key);
  if (at == std::string::npos) return 0;
  return std::strtoull(line.c_str() + at + key.size(), nullptr, 10);
}

TEST(DegradationTest, CountersMatchTraceDerivedTotals) {
  if (!obs::kEnabled) GTEST_SKIP() << "observability compiled out";
  ExperimentConfig cfg = demo_config();
  cfg.degrade.policy = faults::DegradePolicy::kHoldRates;
  cfg.degrade.stale_limit = 3;
  cfg.faults.actuation_loss = 0.1;
  cfg.faults.actuation_delay = 1;
  cfg.faults.overload_spikes.push_back({1, 80, 5, 30.0});

  std::ostringstream out;
  obs::JsonlSink sink(out);
  cfg.trace_sink = &sink;
  obs::Registry metrics;
  cfg.metrics = &metrics;
  const ExperimentResult res = run_experiment(cfg);

  // Re-derive every total from the per-period trace blocks alone.
  std::uint64_t forced = 0, act_lost = 0, overload = 0, blackouts = 0;
  std::uint64_t drops = 0, restores = 0;
  int prev_tracked = static_cast<int>(cfg.spec.num_processors);
  std::istringstream lines(out.str());
  std::string line;
  while (std::getline(lines, line)) {
    if (line.find("\"faults\":{\"mode\":") == std::string::npos) continue;
    forced += extract_u64(line, "\"forced\":");
    act_lost += extract_u64(line, "\"act_lost\":");
    overload += extract_u64(line, "\"overload\":");
    if (line.find("\"mode\":\"blackout\"") != std::string::npos) ++blackouts;
    const int tracked =
        static_cast<int>(extract_u64(line, "\"tracked\":"));
    if (tracked < prev_tracked) drops += prev_tracked - tracked;
    if (tracked > prev_tracked) restores += tracked - prev_tracked;
    prev_tracked = tracked;
  }

  // Trace totals == result fields == registry counters, exactly.
  EXPECT_EQ(forced, res.summary.forced_losses);
  EXPECT_EQ(act_lost, res.summary.actuation_lost);
  EXPECT_EQ(overload, res.summary.overload_injections);
  EXPECT_EQ(blackouts, res.summary.blackout_periods);
  EXPECT_EQ(drops, res.summary.stale_drops);
  EXPECT_EQ(restores, res.summary.stale_restores);

  const obs::Snapshot snap = metrics.snapshot();
  EXPECT_EQ(snap.counters.at("faults.forced_losses"), forced);
  EXPECT_EQ(snap.counters.at("faults.actuation_lost"), act_lost);
  EXPECT_EQ(snap.counters.at("faults.overload_injections"), overload);
  EXPECT_EQ(snap.counters.at("faults.blackout_periods"), blackouts);
  EXPECT_EQ(snap.counters.at("faults.stale_drops"), drops);
  EXPECT_EQ(snap.counters.at("faults.stale_restores"), restores);
  EXPECT_EQ(snap.gauges.at("faults.max_staleness"),
            static_cast<double>(res.summary.max_staleness));

  // And the injected faults actually exercised every source.
  EXPECT_GT(forced, 0u);
  EXPECT_GT(act_lost, 0u);
  EXPECT_EQ(overload, 5u);
  EXPECT_EQ(blackouts, 10u);
}

// ---------------------------------------------------------------------------
// Determinism of faulted runs.
// ---------------------------------------------------------------------------

std::vector<ExperimentSpec> faulted_batch_specs() {
  std::vector<ExperimentSpec> specs;

  ExperimentConfig bursty;
  bursty.spec = workloads::simple();
  bursty.mpc = workloads::simple_controller_params();
  bursty.sim.etf = rts::EtfProfile::constant(0.6);
  bursty.sim.jitter = 0.15;
  bursty.sim.seed = 2000;
  bursty.num_periods = 25;
  bursty.report_loss_probability = 0.1;
  bursty.faults.lane_loss = {0.1, 0.4, 0.02, 0.9};
  specs.push_back({"faulted-bursty", bursty});

  ExperimentConfig blackout = bursty;
  blackout.sim.seed = 2001;
  blackout.report_loss_probability = 0.0;
  blackout.faults = {};
  blackout.faults.lane_outages.push_back({0, 3, 8});
  blackout.faults.blackouts.push_back({12, 4});
  blackout.degrade.policy = faults::DegradePolicy::kDecentralized;
  blackout.degrade.stale_limit = 2;
  specs.push_back({"faulted-blackout", blackout});

  ExperimentConfig actuation = bursty;
  actuation.sim.seed = 2002;
  actuation.faults = {};
  actuation.faults.actuation_loss = 0.3;
  actuation.faults.actuation_delay = 2;
  actuation.faults.overload_spikes.push_back({1, 5, 3, 20.0});
  specs.push_back({"faulted-actuation", actuation});

  return specs;
}

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot read " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

TEST(DegradationTest, FaultedBatchSerialAndPooledAreByteIdentical) {
  if (!obs::kEnabled) GTEST_SKIP() << "observability compiled out";
  const std::vector<ExperimentSpec> specs = faulted_batch_specs();
  const std::filesystem::path base =
      std::filesystem::path(::testing::TempDir()) / "eucon_fault_det";
  const std::filesystem::path serial_dir = base / "serial";
  const std::filesystem::path pooled_dir = base / "pooled";
  std::filesystem::remove_all(base);

  BatchOptions serial;
  serial.serial = true;
  serial.trace_dir = serial_dir.string();
  obs::Registry serial_metrics;
  serial.metrics = &serial_metrics;
  (void)run_batch(specs, serial);

  BatchOptions pooled;
  pooled.num_workers = 2;
  pooled.trace_dir = pooled_dir.string();
  obs::Registry pooled_metrics;
  pooled.metrics = &pooled_metrics;
  (void)run_batch(specs, pooled);

  for (std::size_t i = 0; i < specs.size(); ++i) {
    const std::string file = batch_trace_file_name(i, specs[i].name);
    const std::string a = read_file(serial_dir / file);
    const std::string b = read_file(pooled_dir / file);
    ASSERT_FALSE(a.empty()) << file;
    EXPECT_EQ(a, b) << "serial and pooled traces differ for " << file;
  }
  EXPECT_EQ(serial_metrics.snapshot().counters,
            pooled_metrics.snapshot().counters);
  // The faulted specs really did inject faults through the pooled path.
  EXPECT_GT(pooled_metrics.counter("faults.forced_losses"), 0u);

  std::filesystem::remove_all(base);
}

TEST(DegradationTest, FaultedRunIsReproducible) {
  ExperimentConfig cfg = demo_config();
  cfg.degrade.policy = faults::DegradePolicy::kOpenLoop;
  cfg.degrade.stale_limit = 3;
  const ExperimentResult a = run_experiment(cfg);
  const ExperimentResult b = run_experiment(cfg);
  ASSERT_EQ(a.trace.size(), b.trace.size());
  for (std::size_t i = 0; i < a.trace.size(); ++i) {
    EXPECT_EQ(a.trace[i].u, b.trace[i].u);
    EXPECT_EQ(a.trace[i].rates, b.trace[i].rates);
  }
  EXPECT_EQ(a.summary.forced_losses, b.summary.forced_losses);
  EXPECT_EQ(a.summary.actuation_lost, b.summary.actuation_lost);
}

}  // namespace
}  // namespace eucon
