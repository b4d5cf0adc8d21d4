// Robustness demo (docs/robustness.md): the blackout_demo scenario — a
// 50-period lane-0 outage plus a 10-period controller blackout — run
// without degradation and under each watchdog policy. Prints the per-period
// utilization series side by side and shape-checks the acceptance claim:
// unbounded drift without the watchdog, bounded utilization with it.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "eucon/eucon.h"

using namespace eucon;

namespace {

const char* const kDemoPlanJson = R"({
  "seed": 7,
  "lane_outages": [{"lane": 0, "start": 5, "duration": 50}],
  "controller_blackouts": [{"start": 60, "duration": 10}]
})";

ExperimentConfig demo_config(faults::DegradePolicy policy, int stale_limit) {
  ExperimentConfig cfg;
  cfg.spec = workloads::medium();
  cfg.mpc = workloads::medium_controller_params();
  cfg.sim.etf = rts::EtfProfile::constant(0.8);
  cfg.sim.jitter = 0.1;
  cfg.sim.seed = 1;
  cfg.num_periods = 120;
  cfg.faults = faults::parse_fault_plan(kDemoPlanJson);
  cfg.degrade.policy = policy;
  cfg.degrade.stale_limit = stale_limit;
  return cfg;
}

double max_u0(const ExperimentResult& res) {
  double m = 0.0;
  for (const auto& rec : res.trace) m = std::max(m, rec.u[0]);
  return m;
}

}  // namespace

int main() {
  bench::ShapeChecks checks;

  const struct {
    const char* label;
    faults::DegradePolicy policy;
    int stale_limit;
  } runs[] = {
      {"none", faults::DegradePolicy::kNone, 0},
      {"hold-rates", faults::DegradePolicy::kHoldRates, 3},
      {"open-loop", faults::DegradePolicy::kOpenLoop, 3},
      {"decentralized", faults::DegradePolicy::kDecentralized, 3},
  };

  std::vector<ExperimentResult> results;
  for (const auto& r : runs)
    results.push_back(run_experiment(demo_config(r.policy, r.stale_limit)));

  std::printf("# Robustness demo: lane-0 outage k=5..54, blackout k=60..69\n");
  bench::print_header({"k", "u_P1_none", "u_P1_hold", "u_P1_open",
                       "u_P1_deucon", "set_P1"});
  for (std::size_t i = 0; i < results[0].trace.size(); ++i)
    bench::print_row({static_cast<double>(results[0].trace[i].k),
                      results[0].trace[i].u[0], results[1].trace[i].u[0],
                      results[2].trace[i].u[0], results[3].trace[i].u[0],
                      results[0].set_points[0]});
  std::printf("\n");

  // Without the watchdog the frozen lane-0 report drives P1 into
  // saturation and real deadline misses.
  checks.expect(max_u0(results[0]) > 0.99,
                "no degradation: P1 saturates during the lane outage");
  checks.expect(results[0].deadlines.e2e_miss_ratio() > 0.1,
                "no degradation: end-to-end deadlines are missed");

  for (std::size_t i = 1; i < 4; ++i) {
    const std::string label = runs[i].label;
    checks.expect(max_u0(results[i]) < 0.9,
                  label + ": P1 utilization stays bounded");
    bool all_acceptable = true;
    for (std::size_t p = 0; p < 4; ++p)
      all_acceptable &= metrics::acceptability(results[i], p).acceptable();
    checks.expect(all_acceptable, label + ": every processor acceptable");
    checks.expect(results[i].deadlines.e2e_miss_ratio() < 1e-12,
                  label + ": no end-to-end deadline misses");
    const obs::RunSummary& totals = results[i].summary;
    checks.expect(totals.stale_drops == 1 && totals.stale_restores == 1,
                  label + ": stale lane dropped once and restored once");
  }

  // Identical fault accounting across policies: the injected faults are a
  // function of (plan, seed), not of how the loop reacts to them.
  for (std::size_t i = 1; i < 4; ++i)
    checks.expect(results[i].summary.forced_losses ==
                          results[0].summary.forced_losses &&
                      results[i].summary.blackout_periods ==
                          results[0].summary.blackout_periods,
                  std::string(runs[i].label) +
                      ": same injected faults as the undegraded run");

  return checks.finish("bench_faults");
}
