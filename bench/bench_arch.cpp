// Scaling and architecture study beyond the paper's evaluation:
//
//   1. Centralized EUCON vs decentralized (DEUCON-style) control across
//      growing random systems — tracking quality and per-node problem
//      size. The paper motivates decentralization for "larger scale
//      systems" (§8); this bench quantifies the trade.
//   2. RMS vs EDF as the underlying scheduler: with EDF the schedulable
//      bound is 1.0, so set points can be raised while keeping deadline
//      misses near zero.
#include <cmath>
#include <cstdio>

#include "bench_util.h"
#include "eucon/eucon.h"

using namespace eucon;

namespace {

struct QualityRow {
  int processors, tasks;
  double cen_err, cen_sd, dec_err, dec_sd;
  std::size_t cen_vars, dec_vars;
};

struct SizeCase {
  int processors, tasks;
  std::uint64_t seed;
  rts::SystemSpec spec;
};

SizeCase make_case(int processors, int tasks, std::uint64_t seed) {
  workloads::RandomWorkloadParams wp;
  wp.num_processors = processors;
  wp.num_tasks = tasks;
  wp.min_chain = 1;
  wp.max_chain = 3;
  return {processors, tasks, seed, workloads::random_workload(wp, seed)};
}

ExperimentConfig size_config(const SizeCase& cs, bool decentralized) {
  ExperimentConfig cfg;
  cfg.spec = cs.spec;
  cfg.controller = decentralized ? ControllerKind::kDecentralized
                                 : ControllerKind::kEucon;
  cfg.mpc = workloads::medium_controller_params();
  cfg.sim.etf = rts::EtfProfile::constant(0.6);
  cfg.sim.jitter = 0.2;
  cfg.sim.seed = cs.seed;
  cfg.num_periods = 200;
  return cfg;
}

void worst_tracking(const ExperimentResult& res, int processors,
                    double* worst_err, double* worst_sd) {
  *worst_err = 0.0;
  *worst_sd = 0.0;
  for (std::size_t p = 0; p < static_cast<std::size_t>(processors); ++p) {
    const auto s = metrics::utilization_stats(res, p, 100);
    *worst_err = std::max(*worst_err, std::abs(s.mean() - res.set_points[p]));
    *worst_sd = std::max(*worst_sd, s.stddev());
  }
}

// Builds the quality row for one size from its (centralized, decentralized)
// result pair.
QualityRow make_row(const SizeCase& cs, const ExperimentResult& cen,
                    const ExperimentResult& dec) {
  const auto model = control::make_plant_model(cs.spec);
  QualityRow row{};
  row.processors = cs.processors;
  row.tasks = cs.tasks;
  worst_tracking(cen, cs.processors, &row.cen_err, &row.cen_sd);
  worst_tracking(dec, cs.processors, &row.dec_err, &row.dec_sd);
  const auto probe = control::HierarchicalMpcController::decentralized(
      control::sparsify(model), workloads::medium_controller_params(),
      cs.spec.initial_rate_vector());
  const auto horizon = static_cast<std::size_t>(
      workloads::medium_controller_params().control_horizon);
  row.dec_vars = probe->max_shard_problem_size() * horizon;
  row.cen_vars = model.num_tasks() * horizon;
  return row;
}

}  // namespace

int main() {
  bench::ShapeChecks checks;

  std::printf("# Centralized vs decentralized across system size\n");
  bench::print_header({"procs", "tasks", "cen_worst_err", "cen_worst_sd",
                       "dec_worst_err", "dec_worst_sd", "cen_vars",
                       "dec_vars"});
  // All (size, architecture) runs are independent: one batch of 8 through
  // the parallel engine, results consumed in spec order.
  std::vector<SizeCase> cases;
  for (auto [n, m] : {std::pair{2, 6}, {4, 12}, {6, 18}, {8, 32}})
    cases.push_back(make_case(n, m, 1000 + static_cast<std::uint64_t>(n)));
  std::vector<ExperimentSpec> size_specs;
  size_specs.reserve(2 * cases.size());
  for (const auto& cs : cases) {
    size_specs.push_back(
        {"cen p" + std::to_string(cs.processors), size_config(cs, false)});
    size_specs.push_back(
        {"dec p" + std::to_string(cs.processors), size_config(cs, true)});
  }
  const std::vector<ExperimentResult> size_results = run_batch(size_specs);

  std::vector<QualityRow> rows;
  for (std::size_t i = 0; i < cases.size(); ++i) {
    rows.push_back(
        make_row(cases[i], size_results[2 * i], size_results[2 * i + 1]));
    const auto& r = rows.back();
    bench::print_row({static_cast<double>(r.processors),
                      static_cast<double>(r.tasks), r.cen_err, r.cen_sd,
                      r.dec_err, r.dec_sd, static_cast<double>(r.cen_vars),
                      static_cast<double>(r.dec_vars)});
  }

  // The curated LARGE workload (8 processors, 56 subtasks): the "larger
  // scale" regime of §8, both architectures.
  {
    ExperimentConfig cfg;
    cfg.spec = workloads::large();
    cfg.mpc = workloads::medium_controller_params();
    cfg.sim.etf = rts::EtfProfile::constant(0.6);
    cfg.sim.jitter = 0.2;
    cfg.sim.seed = 3;
    cfg.num_periods = 200;
    QualityRow row{};
    row.processors = 8;
    row.tasks = static_cast<int>(cfg.spec.num_tasks());
    std::vector<ExperimentSpec> large_specs;
    cfg.controller = ControllerKind::kEucon;
    large_specs.push_back({"large cen", cfg});
    cfg.controller = ControllerKind::kDecentralized;
    large_specs.push_back({"large dec", cfg});
    const std::vector<ExperimentResult> large_results = run_batch(large_specs);
    worst_tracking(large_results[0], 8, &row.cen_err, &row.cen_sd);
    worst_tracking(large_results[1], 8, &row.dec_err, &row.dec_sd);
    std::printf("LARGE(curated): ");
    bench::print_row({8, static_cast<double>(row.tasks), row.cen_err,
                      row.cen_sd, row.dec_err, row.dec_sd, 0, 0});
    checks.expect(row.cen_err < 0.03 && row.cen_sd < 0.05,
                  "centralized EUCON acceptable on the curated LARGE system");
    checks.expect(row.dec_err < 0.06,
                  "decentralized tracks the curated LARGE system");
  }

  std::printf("\n");
  for (const auto& r : rows) {
    checks.expect(r.cen_err < 0.05,
                  "centralized tracks at " + std::to_string(r.processors) +
                      " processors / " + std::to_string(r.tasks) + " tasks");
    // Decentralization degrades tracking where the coupling is strong
    // (every node's neighborhood is the whole system in the 2-processor
    // case) but stays bounded — the DEUCON trade-off.
    checks.expect(r.dec_err < 0.12,
                  "decentralized stays bounded at " +
                      std::to_string(r.processors) + " processors / " +
                      std::to_string(r.tasks) + " tasks");
  }
  checks.expect(rows[1].dec_err < 0.05 && rows[3].dec_err < 0.08,
                "decentralized tracking tightens on larger, more loosely "
                "coupled systems");
  checks.expect(rows.back().dec_vars < rows.back().cen_vars,
                "decentralized local problems stay smaller than the "
                "centralized one at the largest size");

  // --- RMS vs EDF -----------------------------------------------------------
  std::printf("# Scheduler study on MEDIUM: RMS at the Liu-Layland bound vs "
              "EDF at a raised set point\n");
  bench::print_header({"policy", "set_point_P1", "mean_u_P1", "e2e_miss",
                       "subtask_miss"});
  struct SchedRow {
    double miss_sub;
    double mean;
  };
  SchedRow rms{}, edf{};
  std::vector<ExperimentSpec> sched_specs;
  for (auto policy : {rts::SchedulingPolicy::kRateMonotonic,
                      rts::SchedulingPolicy::kEdf}) {
    ExperimentConfig cfg;
    cfg.spec = workloads::medium();
    cfg.mpc = workloads::medium_controller_params();
    cfg.sim.etf = rts::EtfProfile::constant(0.7);
    cfg.sim.jitter = 0.2;
    cfg.sim.seed = 3;
    cfg.sim.policy = policy;
    cfg.num_periods = 200;
    const bool is_edf = policy == rts::SchedulingPolicy::kEdf;
    if (is_edf) {
      // EDF's schedulable bound is 1.0; run the processors hotter while
      // keeping headroom for the stochastic execution times.
      cfg.set_points = linalg::Vector(4, 0.90);
    }
    sched_specs.push_back({is_edf ? "EDF" : "RMS", cfg});
  }
  const std::vector<ExperimentResult> sched_results = run_batch(sched_specs);
  for (std::size_t i = 0; i < sched_results.size(); ++i) {
    const ExperimentResult& res = sched_results[i];
    const bool is_edf = i == 1;
    const auto s = metrics::utilization_stats(res, 0, 100);
    std::printf("%s,%.3f,%.4f,%.4f,%.4f\n", is_edf ? "EDF" : "RMS",
                res.set_points[0], s.mean(), res.deadlines.e2e_miss_ratio(),
                res.deadlines.subtask_miss_ratio());
    (is_edf ? edf : rms) = {res.deadlines.subtask_miss_ratio(), s.mean()};
  }
  checks.expect(edf.mean > rms.mean + 0.1,
                "EDF sustains a much higher utilization set point");
  checks.expect(edf.miss_sub < 0.05,
                "EDF keeps subtask misses low even at u = 0.90");

  return checks.finish("bench_arch");
}
