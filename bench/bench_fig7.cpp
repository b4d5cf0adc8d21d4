// Figure 7: the same dynamic-load stress test as Figure 6, under EUCON.
// The controller re-converges to the set points within tens of sampling
// periods after each execution-time step.
#include <cstdio>

#include "bench_util.h"
#include "eucon/eucon.h"

using namespace eucon;

int main() {
  bench::ShapeChecks checks;

  ExperimentConfig cfg;
  cfg.spec = workloads::medium();
  cfg.mpc = workloads::medium_controller_params();
  cfg.sim.etf = rts::EtfProfile::steps(
      {{0.0, 0.5}, {100000.0, 0.9}, {200000.0, 0.33}});
  cfg.sim.jitter = 0.2;
  cfg.sim.seed = 7;
  cfg.num_periods = 300;
  const ExperimentResult res = run_experiment(cfg);

  std::printf("# Figure 7: MEDIUM under EUCON, dynamic execution times\n");
  bench::print_header({"k", "u_P1", "u_P2", "u_P3", "u_P4", "set_P1"});
  for (const auto& rec : res.trace)
    bench::print_row({static_cast<double>(rec.k), rec.u[0], rec.u[1],
                      rec.u[2], rec.u[3], res.set_points[0]});

  std::printf("\n");
  for (std::size_t p = 0; p < 4; ++p) {
    const std::string proc = std::string("P").append(std::to_string(p + 1));
    checks.expect(metrics::acceptability(res, p, 60, 100).acceptable(),
                  proc + " settled before the first step");
    checks.expect(metrics::acceptability(res, p, 160, 200).acceptable(),
                  proc + " re-converged after the +80% step");
    checks.expect(metrics::acceptability(res, p, 260, 300).acceptable(),
                  proc + " re-converged after the -67% step");
  }
  const int settle_up = metrics::settling_time(res, 0, 100, 0.07, 10);
  checks.expect(settle_up >= 0 && settle_up <= 30,
                "re-convergence within ~20-30 Ts of the overload step (paper: ~20Ts)");
  const int settle_down = metrics::settling_time(res, 0, 200, 0.07, 10);
  checks.expect(settle_down >= settle_up,
                "settling is slower after the load drop (smaller gain, section 6.3)");

  return checks.finish("bench_fig7");
}
