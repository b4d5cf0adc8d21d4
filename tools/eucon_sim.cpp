// eucon_sim: command-line driver for the EUCON closed loop.
//
// Runs any built-in or file-loaded task set under any of the implemented
// controllers and environments, printing the per-period utilization/rate
// trace as CSV plus a summary.
//
// Examples:
//   eucon_sim --workload simple --etf 0.5
//   eucon_sim --workload medium --controller deucon
//             --etf-steps 0:0.5,100000:0.9,200000:0.33
//   eucon_sim --spec mytasks.txt --controller adaptive --etf 5 --summary
//   eucon_sim --workload simple --trace-out trace.csv --periods 10
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "eucon/eucon.h"
#include "rts/spec_io.h"

namespace {

using namespace eucon;

[[noreturn]] void usage(const char* argv0, const std::string& error = "") {
  if (!error.empty()) std::fprintf(stderr, "error: %s\n\n", error.c_str());
  std::fprintf(stderr,
               "usage: %s [options]\n"
               "  --workload simple|simple-relaxed|medium|large   built-in task set\n"
               "  --spec FILE               load a task set (see rts/spec_io.h)\n"
               "  --controller eucon|open|pid|deucon|adaptive|fcs-ind|hier\n"
               "                            (default eucon)\n"
               "  --etf X                   constant execution-time factor\n"
               "  --etf-steps t:f,t:f,...   piecewise execution-time factor\n"
               "  --jitter X                uniform exec jitter half-width (default 0.1)\n"
               "  --distribution uniform|exponential|bimodal   exec-time shape\n"
               "  --seed N                  RNG seed (default 1)\n"
               "  --periods N               sampling periods to run (default 300)\n"
               "  --ts X                    sampling period in time units (default 1000)\n"
               "  --policy rms|edf          per-processor scheduler (default rms)\n"
               "  --set-points a,b,...      override the Liu-Layland set points\n"
               "  --loss P                  report-loss probability on the lanes\n"
               "  --lane-delay X            feedback-lane delay in time units\n"
               "  --faults FILE             JSON fault plan (docs/robustness.md):\n"
               "                            lane bursts, actuation loss/delay,\n"
               "                            overload spikes, controller blackouts\n"
               "  --degrade POLICY          blackout watchdog policy: none,\n"
               "                            hold-rates, open-loop, decentralized\n"
               "  --stale-limit N           drop a lane from the MPC tracked set\n"
               "                            after N consecutive lost reports\n"
               "  --replicas N              run N replicas (seeds seed, seed+1, ...)\n"
               "                            and print aggregate statistics\n"
               "  --admission               enable the admission governor\n"
               "  --reallocation            enable the reallocation planner\n"
               "  --trace-out FILE          write the execution trace as CSV\n"
               "  --trace FILE              write the structured per-period JSONL\n"
               "                            trace (docs/observability.md)\n"
               "  --metrics                 print the counter/timer registry after\n"
               "                            the run\n"
               "  --out-prefix P            write P_utilization.csv, P_rates.csv,\n"
               "                            P_summary.txt\n"
               "  --quiet                   suppress the per-period CSV\n"
               "  --summary                 print the summary block\n"
               "  --diagnose                print plant diagnostics and exit\n"
               "Steering mode (docs/steering.md) — ignores the single-run flags:\n"
               "  --steer FILE              run best-arm steering over a JSON\n"
               "                            scenario (examples/scenarios/)\n"
               "  --steer-exhaustive        run the fixed grid instead (baseline)\n"
               "  --delta X                 failure probability (default 0.05)\n"
               "  --bound hoeffding|bernstein|tightest   CI kind (default tightest)\n"
               "  --steer-reps N            replications per arm per round (default 2)\n"
               "  --steer-rounds N          round cap (default: fixed-grid budget)\n"
               "  --steer-log FILE          write the JSONL decision log\n"
               "  --workers N               batch worker threads (default: hardware)\n"
               "  --serial                  run the batch without a worker pool\n"
               "Flags also accept the --flag=value spelling.\n",
               argv0);
  std::exit(2);
}

double parse_double(const char* argv0, const std::string& flag,
                    const std::string& value) {
  try {
    return std::stod(value);
  } catch (const std::exception&) {
    usage(argv0, "bad number for " + flag + ": " + value);
  }
}

std::vector<double> parse_list(const char* argv0, const std::string& flag,
                               const std::string& value) {
  std::vector<double> out;
  std::size_t pos = 0;
  while (pos <= value.size()) {
    const std::size_t comma = value.find(',', pos);
    const std::string item = value.substr(
        pos, comma == std::string::npos ? std::string::npos : comma - pos);
    if (item.empty()) usage(argv0, "empty element in " + flag);
    out.push_back(parse_double(argv0, flag, item));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  ExperimentConfig cfg;
  std::string workload = "simple";
  std::optional<std::string> spec_file;
  std::string trace_out, out_prefix, trace_jsonl, faults_file;
  bool quiet = false, summary = false, diagnose = false;
  bool print_metrics = false;
  int replicas = 0;  // 0 = single run
  std::string steer_file, steer_log;
  bool steer_exhaustive = false;
  steer::SteeringOptions steer_opts;
  cfg.sim.jitter = 0.1;
  cfg.sim.seed = 1;

  // Accept both `--flag value` and `--flag=value` spellings: split on the
  // first '=' of any `--`-prefixed argument before parsing.
  std::vector<std::string> args;
  args.reserve(static_cast<std::size_t>(argc));
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const std::size_t eq = arg.find('=');
    if (arg.size() > 2 && arg.compare(0, 2, "--") == 0 &&
        eq != std::string::npos) {
      args.push_back(arg.substr(0, eq));
      args.push_back(arg.substr(eq + 1));
    } else {
      args.push_back(arg);
    }
  }

  auto next_value = [&](std::size_t& i) -> std::string {
    if (i + 1 >= args.size())
      usage(argv[0], "missing value after " + args[i]);
    return args[++i];
  };

  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string flag = args[i];
    if (flag == "--workload") {
      workload = next_value(i);
    } else if (flag == "--spec") {
      spec_file = next_value(i);
    } else if (flag == "--controller") {
      const std::string c = next_value(i);
      try {
        cfg.controller = scenario::parse_controller_kind(c);
      } catch (const std::exception& e) {
        usage(argv[0], e.what());
      }
    } else if (flag == "--etf") {
      cfg.sim.etf = rts::EtfProfile::constant(
          parse_double(argv[0], flag, next_value(i)));
    } else if (flag == "--etf-steps") {
      std::vector<std::pair<double, double>> steps;
      for (const std::string& part : [&] {
             std::vector<std::string> parts;
             std::string v = next_value(i);
             std::size_t pos = 0;
             while (pos <= v.size()) {
               const std::size_t comma = v.find(',', pos);
               parts.push_back(v.substr(pos, comma == std::string::npos
                                                 ? std::string::npos
                                                 : comma - pos));
               if (comma == std::string::npos) break;
               pos = comma + 1;
             }
             return parts;
           }()) {
        const std::size_t colon = part.find(':');
        if (colon == std::string::npos)
          usage(argv[0], "etf step must be time:factor, got " + part);
        steps.emplace_back(parse_double(argv[0], flag, part.substr(0, colon)),
                           parse_double(argv[0], flag, part.substr(colon + 1)));
      }
      cfg.sim.etf = rts::EtfProfile::steps(std::move(steps));
    } else if (flag == "--jitter") {
      cfg.sim.jitter = parse_double(argv[0], flag, next_value(i));
    } else if (flag == "--distribution") {
      const std::string d = next_value(i);
      if (d == "uniform")
        cfg.sim.exec_distribution = rts::ExecDistribution::kUniform;
      else if (d == "exponential")
        cfg.sim.exec_distribution = rts::ExecDistribution::kExponential;
      else if (d == "bimodal")
        cfg.sim.exec_distribution = rts::ExecDistribution::kBimodal;
      else
        usage(argv[0], "unknown distribution: " + d);
    } else if (flag == "--seed") {
      cfg.sim.seed = static_cast<std::uint64_t>(
          parse_double(argv[0], flag, next_value(i)));
    } else if (flag == "--periods") {
      cfg.num_periods =
          static_cast<int>(parse_double(argv[0], flag, next_value(i)));
    } else if (flag == "--ts") {
      cfg.sampling_period = parse_double(argv[0], flag, next_value(i));
    } else if (flag == "--policy") {
      const std::string p = next_value(i);
      if (p == "rms") cfg.sim.policy = rts::SchedulingPolicy::kRateMonotonic;
      else if (p == "edf") cfg.sim.policy = rts::SchedulingPolicy::kEdf;
      else usage(argv[0], "unknown policy: " + p);
    } else if (flag == "--set-points") {
      cfg.set_points =
          linalg::Vector(parse_list(argv[0], flag, next_value(i)));
    } else if (flag == "--loss") {
      cfg.report_loss_probability =
          parse_double(argv[0], flag, next_value(i));
    } else if (flag == "--lane-delay") {
      cfg.sim.feedback_lane_delay =
          parse_double(argv[0], flag, next_value(i));
    } else if (flag == "--faults") {
      faults_file = next_value(i);
    } else if (flag == "--degrade") {
      const std::string p = next_value(i);
      try {
        cfg.degrade.policy = faults::parse_degrade_policy(p);
      } catch (const std::exception& e) {
        usage(argv[0], e.what());
      }
    } else if (flag == "--stale-limit") {
      cfg.degrade.stale_limit =
          static_cast<int>(parse_double(argv[0], flag, next_value(i)));
    } else if (flag == "--replicas") {
      replicas = static_cast<int>(parse_double(argv[0], flag, next_value(i)));
      // Validated up front with a one-line error (not the EUCON_REQUIRE
      // file:line dump run_replicated would produce).
      if (!valid_replica_count(replicas)) {
        std::fprintf(stderr,
                     "error: --replicas needs at least 2 runs, got %d\n",
                     replicas);
        return 2;
      }
    } else if (flag == "--admission") {
      cfg.enable_admission_control = true;
    } else if (flag == "--reallocation") {
      cfg.enable_reallocation = true;
    } else if (flag == "--trace-out") {
      trace_out = next_value(i);
      cfg.sim.enable_trace = true;
    } else if (flag == "--trace") {
      trace_jsonl = next_value(i);
    } else if (flag == "--metrics") {
      print_metrics = true;
    } else if (flag == "--out-prefix") {
      out_prefix = next_value(i);
    } else if (flag == "--steer") {
      steer_file = next_value(i);
    } else if (flag == "--steer-exhaustive") {
      steer_exhaustive = true;
    } else if (flag == "--delta") {
      steer_opts.bai.delta = parse_double(argv[0], flag, next_value(i));
    } else if (flag == "--bound") {
      const std::string b = next_value(i);
      try {
        steer_opts.bai.bound = steer::parse_bound_kind(b);
      } catch (const std::exception& e) {
        usage(argv[0], e.what());
      }
    } else if (flag == "--steer-reps") {
      steer_opts.reps_per_round =
          static_cast<int>(parse_double(argv[0], flag, next_value(i)));
    } else if (flag == "--steer-rounds") {
      steer_opts.max_rounds =
          static_cast<int>(parse_double(argv[0], flag, next_value(i)));
    } else if (flag == "--steer-log") {
      steer_log = next_value(i);
    } else if (flag == "--workers") {
      steer_opts.num_workers = static_cast<std::size_t>(
          parse_double(argv[0], flag, next_value(i)));
    } else if (flag == "--serial") {
      steer_opts.serial = true;
    } else if (flag == "--quiet") {
      quiet = true;
    } else if (flag == "--summary") {
      summary = true;
    } else if (flag == "--diagnose") {
      diagnose = true;
    } else if (flag == "--help" || flag == "-h") {
      usage(argv[0]);
    } else {
      usage(argv[0], "unknown flag: " + flag);
    }
  }

  try {
    if (!steer_file.empty()) {
      const scenario::Scenario sc = scenario::load_scenario_file(steer_file);
      obs::Registry registry;
      if (print_metrics) steer_opts.metrics = &registry;
      std::ofstream log_out;
      if (!steer_log.empty()) {
        log_out.open(steer_log);
        if (!log_out.good()) {
          std::fprintf(stderr, "cannot open %s\n", steer_log.c_str());
          return 1;
        }
        steer_opts.decision_log = &log_out;
      }
      const steer::SteeringReport rep =
          steer_exhaustive ? steer::run_exhaustive(sc, steer_opts)
                           : steer::run_steering(sc, steer_opts);
      std::printf("# scenario: %s (%s, delta %.3g, bound %s)\n",
                  rep.scenario.c_str(),
                  steer_exhaustive ? "exhaustive grid" : "steering",
                  steer_opts.bai.delta,
                  steer::bound_kind_name(steer_opts.bai.bound));
      std::printf("# winner: %s (%s)\n", rep.winner.c_str(),
                  rep.decided ? "decided" : "budget exhausted");
      std::printf(
          "# rounds: %zu, replications: %zu vs exhaustive %zu "
          "(savings %.2fx)\n",
          rep.rounds, rep.total_replications, rep.exhaustive_replications,
          rep.replication_savings);
      for (const steer::ArmOutcome& arm : rep.arms) {
        std::printf("# arm %-8s mean %.4f +-%.4f pulls %zu%s%s\n",
                    arm.controller.c_str(), arm.mean, arm.radius, arm.pulls,
                    arm.eliminated_round >= 0 ? " eliminated round " : "",
                    arm.eliminated_round >= 0
                        ? std::to_string(arm.eliminated_round).c_str()
                        : "");
      }
      if (print_metrics) {
        const obs::Snapshot snap = registry.snapshot();
        std::printf("# metrics\n");
        for (const auto& [name, value] : snap.counters)
          std::printf("# counter %s %llu\n", name.c_str(),
                      static_cast<unsigned long long>(value));
      }
      if (!steer_log.empty())
        std::fprintf(stderr, "wrote decision log to %s\n", steer_log.c_str());
      return 0;
    }

    if (spec_file) {
      cfg.spec = rts::load_spec_file(*spec_file);
    } else if (workload == "simple") {
      cfg.spec = workloads::simple();
      cfg.mpc = workloads::simple_controller_params();
    } else if (workload == "simple-relaxed") {
      cfg.spec = workloads::simple_relaxed();
      cfg.mpc = workloads::simple_controller_params();
    } else if (workload == "medium") {
      cfg.spec = workloads::medium();
      cfg.mpc = workloads::medium_controller_params();
    } else if (workload == "large") {
      cfg.spec = workloads::large();
      cfg.mpc = workloads::medium_controller_params();
    } else {
      usage(argv[0], "unknown workload: " + workload);
    }
    if (spec_file) cfg.mpc = workloads::medium_controller_params();
    if (!faults_file.empty())
      cfg.faults = faults::load_fault_plan_file(faults_file);

    if (diagnose) {
      const auto model = control::make_plant_model(cfg.spec, cfg.set_points);
      std::printf("%s", control::to_string(control::diagnose_plant(model)).c_str());
      return 0;
    }

    cfg.run_name = spec_file ? *spec_file : workload;

    if (replicas >= 2) {
      // Replicated mode: aggregate statistics only (per-run traces would
      // need per-run sinks; use run_batch with trace_dir for that).
      const ReplicatedResult rep = run_replicated(cfg, replicas, cfg.sim.seed);
      std::printf("# controller: %s, replicas: %d\n",
                  controller_kind_name(cfg.controller), replicas);
      for (std::size_t p = 0; p < rep.per_processor.size(); ++p) {
        const ReplicatedStats& s = rep.per_processor[p];
        std::printf(
            "# P%zu: mean %.4f +-%.4f (95%% CI) sigma %.4f range "
            "[%.4f, %.4f] acceptable %zu/%zu\n",
            p + 1, s.mean_of_means, s.ci95_halfwidth, s.mean_of_stddevs,
            s.min_mean, s.max_mean, s.acceptable_runs, s.replicas);
      }
      std::printf("# mean e2e miss: %.4f, mean subtask miss: %.4f\n",
                  rep.mean_e2e_miss, rep.mean_subtask_miss);
      return 0;
    }

    obs::Registry registry;
    if (print_metrics) cfg.metrics = &registry;
    std::unique_ptr<obs::FileSink> trace_sink;
    if (!trace_jsonl.empty()) {
      trace_sink = std::make_unique<obs::FileSink>(trace_jsonl);
      cfg.trace_sink = trace_sink.get();
    }

    const ExperimentResult res = run_experiment(cfg);
    const std::size_t n = res.set_points.size();

    if (!quiet) {
      std::printf("k");
      for (std::size_t p = 0; p < n; ++p) std::printf(",u_P%zu", p + 1);
      for (std::size_t t = 0; t < cfg.spec.num_tasks(); ++t)
        std::printf(",r_%s", cfg.spec.tasks[t].name.c_str());
      std::printf("\n");
      for (const auto& rec : res.trace) {
        std::printf("%d", rec.k);
        for (double u : rec.u) std::printf(",%.6g", u);
        for (double r : rec.rates) std::printf(",%.6g", r);
        std::printf("\n");
      }
    }

    if (summary) {
      const obs::RunSummary& totals = res.summary;
      std::printf("# controller: %s\n", controller_kind_name(cfg.controller));
      const std::size_t from = metrics::steady_state_from(res.trace.size());
      for (std::size_t p = 0; p < n; ++p) {
        const auto a = metrics::acceptability(res, p, from);
        std::printf("# P%zu: mean %.4f sigma %.4f set %.4f -> %s\n", p + 1,
                    a.mean, a.stddev, a.set_point,
                    a.acceptable() ? "acceptable" : "NOT acceptable");
      }
      std::printf("# e2e deadline miss ratio: %.4f\n",
                  res.deadlines.e2e_miss_ratio());
      std::printf("# subtask deadline miss ratio: %.4f\n",
                  res.deadlines.subtask_miss_ratio());
      std::printf("# controller fallbacks: %llu, lost reports: %llu\n",
                  static_cast<unsigned long long>(totals.controller_fallbacks),
                  static_cast<unsigned long long>(totals.lost_reports));
      if (cfg.enable_admission_control)
        std::printf("# admission: %llu suspensions, %llu readmissions\n",
                    static_cast<unsigned long long>(res.admission_suspensions),
                    static_cast<unsigned long long>(res.admission_readmissions));
      if (cfg.enable_reallocation)
        std::printf("# reallocations executed: %zu\n",
                    res.reallocations.size());
      if (!cfg.faults.empty() || cfg.degrade.enabled()) {
        std::printf(
            "# faults: forced losses %llu, actuation lost %llu, "
            "overload injections %llu, blackout periods %llu\n",
            static_cast<unsigned long long>(totals.forced_losses),
            static_cast<unsigned long long>(totals.actuation_lost),
            static_cast<unsigned long long>(totals.overload_injections),
            static_cast<unsigned long long>(totals.blackout_periods));
        std::printf(
            "# degradation: policy %s, stale drops %llu, restores %llu, "
            "max staleness %d\n",
            faults::degrade_policy_name(cfg.degrade.policy),
            static_cast<unsigned long long>(totals.stale_drops),
            static_cast<unsigned long long>(totals.stale_restores),
            totals.max_staleness);
      }
    }

    if (!out_prefix.empty()) {
      report::write_all(res, cfg.spec, out_prefix);
      std::fprintf(stderr, "wrote %s_{utilization,rates}.csv and %s_summary.txt\n",
                   out_prefix.c_str(), out_prefix.c_str());
    }

    if (print_metrics) {
      const obs::Snapshot snap = registry.snapshot();
      std::printf("# metrics\n");
      for (const auto& [name, value] : snap.counters)
        std::printf("# counter %s %llu\n", name.c_str(),
                    static_cast<unsigned long long>(value));
      for (const auto& [name, value] : snap.gauges)
        std::printf("# gauge %s %.6g\n", name.c_str(), value);
      for (const auto& [name, t] : snap.timers)
        std::printf("# timer %s count=%llu total_us=%.3f mean_us=%.3f\n",
                    name.c_str(), static_cast<unsigned long long>(t.count),
                    static_cast<double>(t.total_ns) / 1000.0, t.mean_us());
    }

    if (!trace_jsonl.empty()) {
      trace_sink.reset();  // close + flush before reporting
      std::fprintf(stderr, "wrote JSONL trace to %s\n", trace_jsonl.c_str());
    }

    if (!trace_out.empty()) {
      std::ofstream out(trace_out);
      if (!out.good()) {
        std::fprintf(stderr, "cannot open %s\n", trace_out.c_str());
        return 1;
      }
      rts::write_trace_csv(res.trace_log, out);
      std::fprintf(stderr, "wrote %zu trace records to %s\n",
                   res.trace_log.size(), trace_out.c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return 0;
}
