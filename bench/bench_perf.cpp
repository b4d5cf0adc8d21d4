// Performance-trajectory harness.
//
// Times the paper's on-line cost centers (the MPC update, the constrained
// least-squares solve behind it, one closed-loop sampling period) plus the
// batch experiment engine, and emits the results as machine-readable
// BENCH_PERF.json (schema in docs/performance.md). Every section runs
// warmup iterations first and reports per-iteration latency percentiles
// (p50/p90/p99) rather than a bare mean, so one slow outlier (page fault,
// scheduler preemption) cannot masquerade as a regression — or hide one.
//
// The lsqlin sections double as the caching acceptance check:
// `lsqlin_oneshot` factors C and derives the dual method's starting factor
// on every call (`qp::lsqlin`), while `lsqlin_solver_warm` drives one
// `qp::LsqlinSolver` that factored C once, on the same problem sequence.
// The `_warm` suffix names the cached factorization; the solver carries no
// working set from one solve to the next.
//
// Usage: bench_perf [--smoke] [--json PATH]
//   --smoke      tiny iteration counts (the ctest gate)
//   --json PATH  where to write the JSON report (default BENCH_PERF.json)
//
// After writing the report the harness re-reads it and applies
// bench/report_checks.h's perf_report_violations, the same rules the
// checked-in BENCH_PERF.json is held to; a violation is a non-zero exit, so
// the ctest smoke run is a real gate on the file format.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/thread_pool.h"
#include "eucon/eucon.h"
#include "report_checks.h"

using namespace eucon;

namespace {

using SteadyClock = std::chrono::steady_clock;

// ---------------------------------------------------------------------------
// Timing scaffolding
// ---------------------------------------------------------------------------

struct SectionResult {
  std::string name;
  std::size_t warmup = 0;
  std::size_t iterations = 0;
  double mean_us = 0.0;
  double p50_us = 0.0;
  double p90_us = 0.0;
  double p99_us = 0.0;
  double min_us = 0.0;
  double max_us = 0.0;
};

double percentile(const std::vector<double>& sorted, double q) {
  EUCON_REQUIRE(!sorted.empty(), "percentile of an empty sample set");
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

double micros(SteadyClock::time_point t0, SteadyClock::time_point t1) {
  return std::chrono::duration<double, std::micro>(t1 - t0).count();
}

// Summarizes one section's per-iteration latencies (after `warmup` untimed
// iterations) and prints its row.
SectionResult summarize(const std::string& name, std::size_t warmup,
                        std::vector<double> us) {
  EUCON_REQUIRE(!us.empty(), "section needs at least one timed iteration");
  std::sort(us.begin(), us.end());
  SectionResult r;
  r.name = name;
  r.warmup = warmup;
  r.iterations = us.size();
  double sum = 0.0;
  for (double v : us) sum += v;
  r.mean_us = sum / static_cast<double>(us.size());
  r.p50_us = percentile(us, 0.50);
  r.p90_us = percentile(us, 0.90);
  r.p99_us = percentile(us, 0.99);
  r.min_us = us.front();
  r.max_us = us.back();
  std::printf("%-28s iters=%-5zu p50=%10.2fus p90=%10.2fus p99=%10.2fus "
              "mean=%10.2fus\n",
              r.name.c_str(), r.iterations, r.p50_us, r.p90_us, r.p99_us,
              r.mean_us);
  return r;
}

// Runs `fn` warmup times untimed, then `iters` times with per-iteration
// wall-clock capture.
template <typename F>
SectionResult time_section(const std::string& name, std::size_t warmup,
                           std::size_t iters, F&& fn) {
  for (std::size_t i = 0; i < warmup; ++i) fn();
  std::vector<double> us;
  us.reserve(iters);
  for (std::size_t i = 0; i < iters; ++i) {
    const auto t0 = SteadyClock::now();
    fn();
    us.push_back(micros(t0, SteadyClock::now()));
  }
  return summarize(name, warmup, std::move(us));
}

// Defeats dead-code elimination without google-benchmark.
volatile double g_sink = 0.0;

void sink(double v) { g_sink = g_sink + v; }

// ---------------------------------------------------------------------------
// Sections
// ---------------------------------------------------------------------------

// One controller update on MEDIUM (P=4, M=2); the measurement alternates
// the utilization sample so the active set keeps doing real work.
SectionResult bench_mpc_update(std::size_t warmup, std::size_t iters) {
  const auto spec = workloads::medium();
  const auto model = control::make_plant_model(spec);
  control::MpcController ctrl(model, workloads::medium_controller_params(),
                              spec.initial_rate_vector());
  linalg::Vector u(model.num_processors(), 0.5);
  bool high = false;
  return time_section("mpc_update_medium", warmup, iters, [&] {
    u[0] = high ? 0.6 : 0.4;
    high = !high;
    sink(ctrl.update(u)[0]);
  });
}

// The same MPC update with a live metrics registry attached: the delta to
// `mpc_update_medium` is the cost of the two scoped timers (`mpc.update`,
// `qp.solve`) firing for real — clock reads plus a map update under the
// registry mutex. `mpc_update_medium` itself stays un-instrumented and so
// keeps measuring the null-registry path (a pointer check per timer site),
// which is what the <5% regression gate in docs/observability.md is about.
SectionResult bench_mpc_update_observed(std::size_t warmup, std::size_t iters,
                                        obs::Registry& registry) {
  const auto spec = workloads::medium();
  const auto model = control::make_plant_model(spec);
  control::MpcController ctrl(model, workloads::medium_controller_params(),
                              spec.initial_rate_vector());
  ctrl.set_metrics_registry(&registry);
  linalg::Vector u(model.num_processors(), 0.5);
  bool high = false;
  return time_section("mpc_update_observed", warmup, iters, [&] {
    u[0] = high ? 0.6 : 0.4;
    high = !high;
    sink(ctrl.update(u)[0]);
  });
}

// The MPC-shaped constrained least-squares problem both lsqlin paths are
// timed on: the MEDIUM controller's own tracking matrix C and constraint
// template, with the target d perturbed every call the way a closed-loop
// run perturbs it.
struct LsqlinFixture {
  linalg::Matrix c;
  linalg::Matrix a;
  linalg::Vector b;
  std::vector<linalg::Vector> targets;  // cycled per call
  std::size_t next = 0;

  explicit LsqlinFixture(std::size_t num_targets, double target_scale = 0.4) {
    const auto spec = workloads::medium();
    const auto model = control::make_plant_model(spec);
    const auto params = workloads::medium_controller_params();
    const control::MpcMatrices mats = control::build_mpc_matrices(model, params);
    c = mats.c;
    // Rate bounds as A x <= b rows, the same encoding MpcController uses
    // for its constraint template.
    const std::size_t n = c.cols();
    a = linalg::Matrix(2 * n, n);
    b = linalg::Vector(2 * n);
    for (std::size_t j = 0; j < n; ++j) {
      a(j, j) = 1.0;
      b[j] = 0.5;
      a(n + j, j) = -1.0;
      b[n + j] = 0.5;
    }
    Rng rng(2026);
    targets.reserve(num_targets);
    for (std::size_t t = 0; t < num_targets; ++t) {
      linalg::Vector d(c.rows());
      for (std::size_t r = 0; r < d.size(); ++r)
        d[r] = rng.uniform(-target_scale, target_scale);
      targets.push_back(std::move(d));
    }
  }

  const linalg::Vector& next_target() {
    const linalg::Vector& d = targets[next];
    next = (next + 1) % targets.size();
    return d;
  }
};

// One-shot path: qp::lsqlin() factors C by QR and inverts its R factor on
// every call.
SectionResult bench_lsqlin_oneshot(std::size_t warmup, std::size_t iters) {
  LsqlinFixture fx(16);
  qp::LsqlinProblem prob;
  prob.c = fx.c;
  prob.a = fx.a;
  prob.b = fx.b;
  return time_section("lsqlin_oneshot", warmup, iters, [&] {
    prob.d = fx.next_target();
    sink(qp::lsqlin(prob).residual_norm);
  });
}

// Controller hot path: the QR of C and the dual starting factor cached
// across calls.
SectionResult bench_lsqlin_solver_warm(std::size_t warmup, std::size_t iters) {
  LsqlinFixture fx(16);
  qp::LsqlinSolver solver(fx.c);
  return time_section("lsqlin_solver_warm", warmup, iters, [&] {
    const qp::LsqlinResult res = solver.solve(fx.next_target(), fx.a, fx.b);
    sink(res.residual_norm);
  });
}

// The dual active-set iterations themselves, fast path forced off: targets
// large enough that the unconstrained minimizer always violates the rate
// box, so every call adds (and drops) rows starting from the cached
// factor. This is the section the solver's per-iteration cost is gated on
// (docs/performance.md).
SectionResult bench_qp_solve_warm(std::size_t warmup, std::size_t iters) {
  LsqlinFixture fx(16, /*target_scale=*/3.0);
  qp::LsqlinSolver solver(fx.c);
  bool saw_fast_path = false;
  SectionResult r = time_section("qp_solve_warm", warmup, iters, [&] {
    const qp::LsqlinResult res = solver.solve(fx.next_target(), fx.a, fx.b);
    saw_fast_path = saw_fast_path || res.fast_path;
    sink(res.residual_norm);
  });
  EUCON_REQUIRE(!saw_fast_path,
                "qp_solve_warm fixture failed to force the active-set path");
  return r;
}

// One closed-loop sampling period of MEDIUM as run_experiment runs it:
// simulate Ts, sample, deliver over the feedback lanes, control, actuate,
// record the trace. One run of warmup + iters + 1 periods; each sample is
// the interval between consecutive on_period callbacks after the warm-up.
SectionResult bench_closed_loop(std::size_t warmup, std::size_t iters) {
  ExperimentConfig cfg;
  cfg.spec = workloads::medium();
  cfg.mpc = workloads::medium_controller_params();
  cfg.sim.jitter = 0.2;
  cfg.num_periods = static_cast<int>(warmup + iters + 1);
  std::vector<SteadyClock::time_point> stamps;
  stamps.reserve(warmup + iters + 1);
  cfg.on_period = [&stamps](int, control::Controller&) {
    stamps.push_back(SteadyClock::now());
  };
  (void)run_experiment(cfg);
  std::vector<double> us;
  for (std::size_t i = warmup + 1; i < stamps.size(); ++i)
    us.push_back(micros(stamps[i - 1], stamps[i]));
  return summarize("closed_loop_period_medium", warmup, std::move(us));
}

// ---------------------------------------------------------------------------
// Batch engine throughput
// ---------------------------------------------------------------------------

struct BatchScalingPoint {
  std::size_t workers = 0;
  double runs_per_sec = 0.0;
};

struct BatchResult {
  std::size_t runs = 0;
  std::size_t workers = 0;  // worker count of the headline parallel pass
  double serial_runs_per_sec = 0.0;
  double parallel_runs_per_sec = 0.0;
  // Speedup claims are only honest when the machine can actually run
  // workers in parallel. On a 1-core box the pool measures queueing
  // overhead, not scaling, so `speedup` is withheld (JSON null) and
  // `speedup_claimed` is false — perf_report_violations enforces this.
  bool speedup_claimed = false;
  double speedup = 0.0;  // meaningful only when speedup_claimed
  std::vector<BatchScalingPoint> scaling;  // pooled throughput per worker count
};

BatchResult bench_batch(std::size_t runs, int periods) {
  std::vector<ExperimentSpec> specs;
  specs.reserve(runs);
  for (std::size_t i = 0; i < runs; ++i) {
    ExperimentConfig cfg;
    cfg.spec = workloads::medium();
    cfg.mpc = workloads::medium_controller_params();
    cfg.num_periods = periods;
    cfg.sim.jitter = 0.1;
    cfg.sim.etf = rts::EtfProfile::constant(
        0.4 + 0.2 * static_cast<double>(i % 8));
    cfg.sim.seed = 100 + i;
    specs.push_back({"run" + std::to_string(i), cfg});
  }

  const std::size_t hw = ThreadPool::default_workers();
  BatchOptions serial;
  serial.serial = true;

  // One untimed serial pass as warmup (page-in, allocator steady state),
  // then a timed pass.
  (void)run_batch(specs, serial);
  const auto s0 = SteadyClock::now();
  (void)run_batch(specs, serial);
  const auto s1 = SteadyClock::now();
  const double serial_s = std::chrono::duration<double>(s1 - s0).count();

  BatchResult r;
  r.runs = runs;
  r.workers = hw;
  r.serial_runs_per_sec = static_cast<double>(runs) / serial_s;

  // Pooled throughput at 1, 2, 4, ... workers up to hardware_concurrency
  // (always including hardware_concurrency itself): the multi-core scaling
  // curve, not just one end point.
  std::vector<std::size_t> worker_counts;
  for (std::size_t w = 1; w < hw; w *= 2) worker_counts.push_back(w);
  worker_counts.push_back(hw);
  for (const std::size_t w : worker_counts) {
    BatchOptions pooled;
    pooled.num_workers = w;
    (void)run_batch(specs, pooled);  // warmup pass per worker count
    const auto t0 = SteadyClock::now();
    (void)run_batch(specs, pooled);
    const auto t1 = SteadyClock::now();
    const double pooled_s = std::chrono::duration<double>(t1 - t0).count();
    r.scaling.push_back({w, static_cast<double>(runs) / pooled_s});
  }
  r.parallel_runs_per_sec = r.scaling.back().runs_per_sec;

  r.speedup_claimed = hw > 1;
  if (r.speedup_claimed) {
    r.speedup = r.parallel_runs_per_sec /
                std::max(r.serial_runs_per_sec, 1e-12);
    std::printf("batch_engine                 runs=%zu workers=%zu "
                "serial=%.2f runs/s parallel=%.2f runs/s speedup=%.2fx\n",
                r.runs, r.workers, r.serial_runs_per_sec,
                r.parallel_runs_per_sec, r.speedup);
  } else {
    std::printf("batch_engine                 runs=%zu workers=%zu "
                "serial=%.2f runs/s parallel=%.2f runs/s "
                "speedup=withheld (1-core machine measures queueing "
                "overhead, not scaling)\n",
                r.runs, r.workers, r.serial_runs_per_sec,
                r.parallel_runs_per_sec);
  }
  for (const BatchScalingPoint& p : r.scaling)
    std::printf("  batch_scaling workers=%-3zu %.2f runs/s\n", p.workers,
                p.runs_per_sec);
  return r;
}

// ---------------------------------------------------------------------------
// Observability aggregates (docs/observability.md)
// ---------------------------------------------------------------------------

struct ObsReport {
  double base_p50_us = 0.0;      // mpc_update_medium, null registry
  double observed_p50_us = 0.0;  // mpc_update_observed, live registry
  double overhead_pct = 0.0;     // (observed - base) / base * 100
  obs::TimerStats mpc_update;
  obs::TimerStats qp_solve;
};

ObsReport make_obs_report(const SectionResult& base,
                          const SectionResult& observed,
                          const obs::Registry& registry) {
  ObsReport r;
  r.base_p50_us = base.p50_us;
  r.observed_p50_us = observed.p50_us;
  r.overhead_pct =
      (observed.p50_us - base.p50_us) / std::max(base.p50_us, 1e-9) * 100.0;
  r.mpc_update = registry.timer("mpc.update");
  r.qp_solve = registry.timer("qp.solve");
  std::printf("obs registry overhead: %.2f%% (p50 %.2fus -> %.2fus), "
              "mpc.update timer count=%llu mean=%.2fus\n",
              r.overhead_pct, r.base_p50_us, r.observed_p50_us,
              static_cast<unsigned long long>(r.mpc_update.count),
              r.mpc_update.mean_us());
  return r;
}

// ---------------------------------------------------------------------------
// JSON emission
// ---------------------------------------------------------------------------

std::string json_number(double v) {
  EUCON_REQUIRE(std::isfinite(v), "JSON report requires finite numbers");
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

void write_report(const std::string& path,
                  const std::vector<SectionResult>& sections,
                  const BatchResult& batch, const ObsReport& obs_report,
                  bool smoke) {
  std::ofstream out(path);
  EUCON_REQUIRE(out.good(), "cannot open JSON report path: " + path);
  out << "{\n";
  out << "  \"schema_version\": 2,\n";
  out << "  \"generated_by\": \"bench_perf\",\n";
  out << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n";
  out << "  \"hardware_concurrency\": " << ThreadPool::default_workers()
      << ",\n";
  out << "  \"benchmarks\": [\n";
  for (std::size_t i = 0; i < sections.size(); ++i) {
    const SectionResult& s = sections[i];
    out << "    {\n";
    out << "      \"name\": \"" << s.name << "\",\n";
    out << "      \"warmup_iterations\": " << s.warmup << ",\n";
    out << "      \"iterations\": " << s.iterations << ",\n";
    out << "      \"mean_us\": " << json_number(s.mean_us) << ",\n";
    out << "      \"p50_us\": " << json_number(s.p50_us) << ",\n";
    out << "      \"p90_us\": " << json_number(s.p90_us) << ",\n";
    out << "      \"p99_us\": " << json_number(s.p99_us) << ",\n";
    out << "      \"min_us\": " << json_number(s.min_us) << ",\n";
    out << "      \"max_us\": " << json_number(s.max_us) << "\n";
    out << "    }" << (i + 1 < sections.size() ? "," : "") << "\n";
  }
  out << "  ],\n";
  out << "  \"batch\": {\n";
  out << "    \"runs\": " << batch.runs << ",\n";
  out << "    \"workers\": " << batch.workers << ",\n";
  out << "    \"serial_runs_per_sec\": " << json_number(batch.serial_runs_per_sec)
      << ",\n";
  out << "    \"parallel_runs_per_sec\": "
      << json_number(batch.parallel_runs_per_sec) << ",\n";
  // The honesty contract: a 1-core run writes null, never a number —
  // perf_report_violations rejects a report that claims a speedup it could
  // not have measured.
  out << "    \"speedup_claimed\": "
      << (batch.speedup_claimed ? "true" : "false") << ",\n";
  if (batch.speedup_claimed)
    out << "    \"speedup\": " << json_number(batch.speedup) << "\n";
  else
    out << "    \"speedup\": null\n";
  out << "  },\n";
  out << "  \"batch_scaling\": [\n";
  for (std::size_t i = 0; i < batch.scaling.size(); ++i) {
    const BatchScalingPoint& p = batch.scaling[i];
    out << "    {\"workers\": " << p.workers << ", \"runs_per_sec\": "
        << json_number(p.runs_per_sec) << "}"
        << (i + 1 < batch.scaling.size() ? "," : "") << "\n";
  }
  out << "  ],\n";
  out << "  \"obs\": {\n";
  out << "    \"mpc_update_p50_us\": " << json_number(obs_report.base_p50_us)
      << ",\n";
  out << "    \"mpc_update_observed_p50_us\": "
      << json_number(obs_report.observed_p50_us) << ",\n";
  out << "    \"registry_overhead_pct\": "
      << json_number(obs_report.overhead_pct) << ",\n";
  out << "    \"timer_mpc_update_count\": " << obs_report.mpc_update.count
      << ",\n";
  out << "    \"timer_mpc_update_mean_us\": "
      << json_number(obs_report.mpc_update.mean_us()) << ",\n";
  out << "    \"timer_qp_solve_count\": " << obs_report.qp_solve.count
      << ",\n";
  out << "    \"timer_qp_solve_mean_us\": "
      << json_number(obs_report.qp_solve.mean_us()) << "\n";
  out << "  }\n";
  out << "}\n";
  EUCON_REQUIRE(out.good(), "failed writing JSON report: " + path);
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string json_path = "BENCH_PERF.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: bench_perf [--smoke] [--json PATH]\n");
      return 2;
    }
  }

  const std::size_t warmup = smoke ? 3 : 50;
  const std::size_t iters = smoke ? 12 : 400;
  // One closed-loop period is tens of microseconds; 4,000 of them (about
  // a quarter second) let the percentiles settle on a shared host, where
  // 120 moved p50 by a quarter between back-to-back runs.
  const std::size_t loop_iters = smoke ? 8 : 4000;
  // 48 MEDIUM runs (about 1 s serial) keep pool start-up and the serial
  // tail small next to the work; a batch of tens of milliseconds shows no
  // speedup at all.
  const std::size_t batch_runs = smoke ? 4 : 48;
  const int batch_periods = smoke ? 25 : 120;

  std::printf("bench_perf: %s run, %zu hardware threads\n",
              smoke ? "smoke" : "full", ThreadPool::default_workers());

  std::vector<SectionResult> sections;
  sections.push_back(bench_mpc_update(warmup, iters));
  obs::Registry obs_registry;
  sections.push_back(bench_mpc_update_observed(warmup, iters, obs_registry));
  sections.push_back(bench_lsqlin_oneshot(warmup, iters));
  sections.push_back(bench_lsqlin_solver_warm(warmup, iters));
  sections.push_back(bench_qp_solve_warm(warmup, iters));
  sections.push_back(bench_closed_loop(smoke ? 2 : 10, loop_iters));
  const BatchResult batch = bench_batch(batch_runs, batch_periods);
  const ObsReport obs_report =
      make_obs_report(sections[0], sections[1], obs_registry);

  // The headline comparison for the cached factorization.
  const double oneshot_p50 = sections[2].p50_us;
  const double cached_p50 = std::max(sections[3].p50_us, 1e-9);
  std::printf("lsqlin cached vs one-shot: %.2fx faster (p50)\n",
              oneshot_p50 / cached_p50);

  write_report(json_path, sections, batch, obs_report, smoke);
  const bench::Violations violations =
      bench::check_report_file(json_path, bench::perf_report_violations);
  if (!violations.empty()) {
    std::fprintf(stderr, "bench_perf: %s failed schema validation\n",
                 json_path.c_str());
    return narrow<int>(violations.size());
  }
  std::printf("bench_perf: wrote %s (schema valid)\n", json_path.c_str());
  return 0;
}
