// Adaptive-steering acceptance harness (docs/steering.md).
//
// Runs the controller_shootout scenario twice — once through the
// successive-elimination steering loop, once as the exhaustive fixed grid —
// and gates the claims the steering layer is sold on: the steered run must
// decide (a single surviving arm), its winner must match the exhaustive
// grid's, and it must spend at least 2x fewer replications doing so. Both
// runs are deterministic, so the gates are stable, not statistical.
//
// Usage: bench_steering [--smoke] [--json PATH]
//   --smoke      a two-arm scenario sized for the ctest gate (~1s)
//   --json PATH  where to write the JSON report (default BENCH_STEERING.json)
//
// After writing the report the harness re-reads it and applies
// bench/report_checks.h's steering_report_violations: schema, internal
// consistency (the published savings must equal the replication ratio,
// winners_match must equal the actual string comparison) and the published
// claims, the same rules the checked-in BENCH_STEERING.json is held to. So
// the ctest smoke run is a real gate on the file format. Exit code = failed
// shape checks + schema violations.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/check.h"
#include "eucon/eucon.h"
#include "report_checks.h"

using namespace eucon;

namespace {

using SteadyClock = std::chrono::steady_clock;

// The acceptance floor: steering must beat the fixed grid by at least this
// factor on the shootout scenario (ISSUE acceptance criterion).
constexpr double kSavingsFloor = 2.0;

// The checked-in shootout: one coupled random workload where per-processor
// alternatives cannot regulate remote-subtask-dominated processors, so the
// controller ranking has a real gap for the bounds to find.
scenario::Scenario shootout_scenario() {
  return scenario::load_scenario_file(std::string(EUCON_SCENARIO_DIR) +
                                      "/controller_shootout.json");
}

// ctest-sized variant: two arms with a large score gap (EUCON tracks the
// set points at half load, the open-loop baseline cannot), so elimination
// fires within a few rounds and the whole gate runs in about a second.
scenario::Scenario smoke_scenario() {
  return scenario::parse_scenario(R"({
    "name": "shootout-smoke",
    "seed": 7,
    "periods": 60,
    "replicas": 700,
    "controllers": ["eucon", "open"],
    "workloads": ["simple"],
    "etf": [0.5]
  })");
}

struct TimedReport {
  steer::SteeringReport report;
  double seconds = 0.0;
};

template <typename F>
TimedReport timed(F&& fn) {
  const auto t0 = SteadyClock::now();
  TimedReport out;
  out.report = fn();
  out.seconds = std::chrono::duration<double>(SteadyClock::now() - t0).count();
  return out;
}

std::string json_number(double v) {
  EUCON_REQUIRE(std::isfinite(v), "JSON report requires finite numbers");
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

void write_arm_array(std::ofstream& out, const char* indent,
                     const std::vector<steer::ArmOutcome>& arms) {
  for (std::size_t i = 0; i < arms.size(); ++i) {
    const steer::ArmOutcome& a = arms[i];
    out << indent << "{\"controller\": \"" << a.controller
        << "\", \"mean\": " << json_number(a.mean)
        << ", \"pulls\": " << a.pulls
        << ", \"eliminated_round\": " << a.eliminated_round << "}"
        << (i + 1 < arms.size() ? "," : "") << "\n";
  }
}

void write_report(const std::string& path, bool smoke,
                  const steer::SteeringOptions& options,
                  const TimedReport& steered, const TimedReport& grid) {
  const steer::SteeringReport& s = steered.report;
  const steer::SteeringReport& g = grid.report;
  std::ofstream out(path);
  EUCON_REQUIRE(out.good(), "cannot open JSON report path: " + path);
  out << "{\n";
  out << "  \"schema_version\": 1,\n";
  out << "  \"generated_by\": \"bench_steering\",\n";
  out << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n";
  out << "  \"scenario\": \"" << s.scenario << "\",\n";
  out << "  \"delta\": " << json_number(options.bai.delta) << ",\n";
  out << "  \"bound\": \"" << steer::bound_kind_name(options.bai.bound)
      << "\",\n";
  out << "  \"reps_per_round\": " << options.reps_per_round << ",\n";
  out << "  \"savings_floor\": " << json_number(kSavingsFloor) << ",\n";
  out << "  \"winners_match\": " << (s.winner == g.winner ? "true" : "false")
      << ",\n";
  out << "  \"steering\": {\n";
  out << "    \"winner\": \"" << s.winner << "\",\n";
  out << "    \"decided\": " << (s.decided ? "true" : "false") << ",\n";
  out << "    \"rounds\": " << s.rounds << ",\n";
  out << "    \"replications\": " << s.total_replications << ",\n";
  out << "    \"replication_savings\": " << json_number(s.replication_savings)
      << ",\n";
  out << "    \"wall_seconds\": " << json_number(steered.seconds) << ",\n";
  out << "    \"arms\": [\n";
  write_arm_array(out, "      ", s.arms);
  out << "    ]\n";
  out << "  },\n";
  out << "  \"exhaustive\": {\n";
  out << "    \"winner\": \"" << g.winner << "\",\n";
  out << "    \"decided\": " << (g.decided ? "true" : "false") << ",\n";
  out << "    \"replications\": " << g.total_replications << ",\n";
  out << "    \"wall_seconds\": " << json_number(grid.seconds) << ",\n";
  out << "    \"arms\": [\n";
  write_arm_array(out, "      ", g.arms);
  out << "    ]\n";
  out << "  }\n";
  out << "}\n";
  EUCON_REQUIRE(out.good(), "failed writing JSON report: " + path);
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string json_path = "BENCH_STEERING.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: bench_steering [--smoke] [--json PATH]\n");
      return 2;
    }
  }

  const scenario::Scenario sc =
      smoke ? smoke_scenario() : shootout_scenario();
  steer::SteeringOptions options;
  options.reps_per_round = 25;

  std::printf("bench_steering: %s run, scenario %s (%zu arms, budget %zu "
              "pulls/arm)\n",
              smoke ? "smoke" : "full", sc.name.c_str(),
              sc.controllers.size(),
              sc.num_instances() * static_cast<std::size_t>(sc.replicas));

  obs::Registry registry;
  steer::SteeringOptions steer_options = options;
  steer_options.metrics = &registry;
  const TimedReport steered =
      timed([&] { return steer::run_steering(sc, steer_options); });
  const TimedReport grid =
      timed([&] { return steer::run_exhaustive(sc, options); });
  const steer::SteeringReport& s = steered.report;
  const steer::SteeringReport& g = grid.report;

  std::printf("steering:   winner=%-8s decided=%d rounds=%zu "
              "replications=%zu savings=%.2fx wall=%.2fs\n",
              s.winner.c_str(), s.decided ? 1 : 0, s.rounds,
              s.total_replications, s.replication_savings, steered.seconds);
  std::printf("exhaustive: winner=%-8s decided=%d replications=%zu "
              "wall=%.2fs\n",
              g.winner.c_str(), g.decided ? 1 : 0, g.total_replications,
              grid.seconds);
  for (const steer::ArmOutcome& a : s.arms)
    std::printf("  arm %-8s mean=%.4f pulls=%-5zu eliminated_round=%d\n",
                a.controller.c_str(), a.mean, a.pulls, a.eliminated_round);

  bench::ShapeChecks checks;
  checks.expect(s.decided,
                "steering decides on a single surviving controller");
  checks.expect(s.winner == g.winner,
                "steered winner matches the exhaustive grid");
  checks.expect(s.replication_savings >= kSavingsFloor,
                "replication savings clear the " +
                    std::string(json_number(kSavingsFloor)) + "x floor");
  checks.expect(s.total_replications < g.total_replications,
                "steering spends strictly fewer runs than the grid");
  checks.expect(g.decided,
                "exhaustive grid separates the winner (sanity on the gap)");
  const obs::Snapshot snap = registry.snapshot();
  checks.expect(snap.counters.at("steer.rounds") == s.rounds &&
                    snap.counters.at("steer.replications") ==
                        s.total_replications,
                "steer.* registry counters agree with the report");

  write_report(json_path, smoke, options, steered, grid);
  const int violations = narrow<int>(
      bench::check_report_file(json_path, bench::steering_report_violations)
          .size());
  if (violations != 0)
    std::fprintf(stderr, "bench_steering: %s failed schema validation\n",
                 json_path.c_str());
  else
    std::printf("bench_steering: wrote %s (schema valid)\n",
                json_path.c_str());
  return checks.finish("bench_steering") + violations;
}
