// Overload protection in an avionics mission computer (paper §3.3).
//
// A surveillance pipeline (sensor -> tracker -> display), a weapons-release
// chain and local housekeeping tasks share three processors. Two events
// stress the system:
//
//   * at 80Ts the scene complexity doubles every execution time (etf 0.6
//     -> 1.2: think "number of potential targets in the camera images");
//   * at 160Ts the operator lowers P1's utilization set point from its RMS
//     bound to 0.60 in anticipation of a critical mission phase (§3.3's
//     online set-point change).
//
// EUCON absorbs both events by rate adaptation; the report shows the
// set points being re-acquired after each event.
//
//   ./avionics_overload
#include <cstdio>

#include "eucon/eucon.h"

using namespace eucon;

namespace {

rts::SystemSpec avionics_spec() {
  rts::SystemSpec s;
  s.num_processors = 3;
  auto task = [](std::string name, std::vector<rts::SubtaskSpec> subs,
                 double init_p) {
    rts::TaskSpec t;
    t.name = std::move(name);
    t.subtasks = std::move(subs);
    t.rate_min = 1.0 / 2000.0;
    t.rate_max = 1.0 / 15.0;
    t.initial_rate = 1.0 / init_p;
    return t;
  };
  // Sensor processing on P1 feeds tracking on P2 and display on P3.
  s.tasks.push_back(task("video_track", {{0, 18.0}, {1, 22.0}, {2, 12.0}}, 150.0));
  // Radar chain: P2 -> P1.
  s.tasks.push_back(task("radar_fusion", {{1, 16.0}, {0, 14.0}}, 180.0));
  // Weapons-release chain: P1 -> P3.
  s.tasks.push_back(task("weapons_rel", {{0, 12.0}, {2, 16.0}}, 200.0));
  // Local housekeeping.
  s.tasks.push_back(task("bit_monitor", {{0, 20.0}}, 250.0));
  s.tasks.push_back(task("nav_update", {{1, 24.0}}, 220.0));
  s.tasks.push_back(task("hud_refresh", {{2, 21.0}}, 240.0));
  s.validate();
  return s;
}

}  // namespace

int main() {
  ExperimentConfig cfg;
  cfg.spec = avionics_spec();
  cfg.mpc = workloads::medium_controller_params();
  cfg.sim.etf = rts::EtfProfile::steps({{0.0, 0.6}, {80000.0, 1.2}});
  cfg.sim.jitter = 0.15;
  cfg.sim.seed = 11;
  cfg.num_periods = 240;

  const linalg::Vector rms_bounds = cfg.spec.liu_layland_set_points();
  // The operator's set-point change at 160Ts: reserve headroom on P1.
  cfg.on_period = [&](int k, control::Controller& c) {
    if (k == 160) {
      linalg::Vector b = rms_bounds;
      b[0] = 0.60;
      dynamic_cast<control::MpcController&>(c).set_set_points(b);
      std::printf("-- period 160: operator lowers P1 set point to 0.60 --\n");
    }
  };

  const ExperimentResult res = run_experiment(cfg);

  std::printf("k    u(P1)   u(P2)   u(P3)\n");
  for (const auto& rec : res.trace) {
    if (rec.k % 8 != 0) continue;
    std::printf("%-4d %.4f  %.4f  %.4f\n", rec.k, rec.u[0], rec.u[1], rec.u[2]);
  }

  std::printf("\nRMS bounds: %.3f %.3f %.3f\n", rms_bounds[0], rms_bounds[1],
              rms_bounds[2]);
  auto report = [&](const char* label, std::size_t from, std::size_t to,
                    double p1_target) {
    const auto s1 = metrics::utilization_stats(res, 0, from, to);
    const auto s2 = metrics::utilization_stats(res, 1, from, to);
    const auto s3 = metrics::utilization_stats(res, 2, from, to);
    std::printf("%-34s P1 %.3f (target %.3f) | P2 %.3f | P3 %.3f\n", label,
                s1.mean(), p1_target, s2.mean(), s3.mean());
  };
  report("before the load surge [40,80):", 40, 80, rms_bounds[0]);
  report("after the surge, pre-change [120,160):", 120, 160, rms_bounds[0]);
  report("after the set-point change [200,240):", 200, 240, 0.60);
  std::printf("\ndeadline miss ratio (end-to-end): %.4f\n",
              res.deadlines.e2e_miss_ratio());
  std::printf("controller infeasible-fallbacks: %llu\n",
              static_cast<unsigned long long>(res.summary.controller_fallbacks));
  return 0;
}
