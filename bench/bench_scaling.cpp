// Cluster-scale control-plane harness.
//
// The paper's §8 names "decentralized control architecture to handle
// large-scale systems" as future work; this bench drives the sharded
// hierarchical controller (control/hierarchical.h) over sparse chain
// workloads (workloads::chain_cluster) from 16 to 10k processors and
// reports the closed-loop period cost against n — controller update plus
// idealized plant step (control/sparse_model.h's SparseLinearPlant; the
// discrete-event simulator and the dense F both stop being viable orders
// of magnitude below 10k). Emits machine-readable BENCH_SCALING.json
// (schema in docs/performance.md), re-read and checked with
// bench/report_checks.h's scaling_report_violations before exiting, so the
// ctest smoke run is a real gate on the file format.
//
// The parity section closes the loop with both the sharded controller and
// the central MPC on square-F scenarios (tasks_per_processor = 1, so the
// steady-state rates at u = B are unique) at every n <= 128, and checks
// the shard-boundary reconciliation converges to the central fixpoint.
//
// Usage: bench_scaling [--smoke] [--json PATH]
//   --smoke      short settle/timing loops (the ctest gate)
//   --json PATH  where to write the JSON report (default BENCH_SCALING.json)
#include <algorithm>
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
using linalg::Vector;

constexpr std::size_t kShardSize = 32;

control::MpcParams scale_params() {
  control::MpcParams p;  // the SIMPLE row: the smallest honest horizon
  p.prediction_horizon = 2;
  p.control_horizon = 1;
  p.tref_over_ts = 4.0;
  // The scaling scenarios pin b to an *interior* target b = F r* (see
  // pin_reachable_set_points), not the RMS schedulability bound, so the
  // hard u <= b rows model nothing here — and they can wedge the sharded
  // controller: a boundary row sitting exactly at b hard-blocks a
  // neighbor shard's only path to its own off-target row, an equilibrium
  // only a global trade-off (or soft tracking) escapes. Both controllers
  // run soft, so the parity comparison stays like-for-like.
  p.constraint_mode = control::ConstraintMode::kSoftOnly;
  return p;
}

workloads::ChainClusterParams cluster(int n, int tasks_per_processor) {
  workloads::ChainClusterParams params;
  params.num_processors = n;
  params.tasks_per_processor = tasks_per_processor;
  params.chain_length = 3;
  // A dominant home-processor subtask keeps F column-diagonally dominant:
  // well-conditioned (so u = b identifies the steady-state rates the parity
  // section compares) and weakly coupled across shards (so the staggered
  // Gauss–Seidel sweeps contract at a rate independent of the shard count).
  params.subtask_decay = 0.15;
  return params;
}

struct ScalePoint {
  int processors = 0;
  std::size_t tasks = 0;
  std::size_t nnz = 0;
  std::size_t shards = 0;
  std::size_t max_shard_vars = 0;
  std::size_t workspace_vars = 0;
  std::size_t workspace_cons = 0;
  double construct_ms = 0.0;
  std::size_t periods_timed = 0;
  double period_p50_us = 0.0;
  double period_mean_us = 0.0;
  double steady_err_max = 0.0;
};

struct ParityPoint {
  int processors = 0;
  double max_rate_gap_rel = 0.0;
  double util_err_hier = 0.0;
  double util_err_central = 0.0;
};

// The generated Liu–Layland set points are reachable per row but need not
// be *jointly* reachable: at cluster scale one rate vector must satisfy
// every coupled row at once, and some generated scenario always has a
// processor whose neighbors' demands pin its tasks away from its own b —
// every controller (the central MPC included) then parks at a weighted
// compromise. The scaling scenarios pin the set points to a known-interior
// target b := F r* instead (r* at fraction `t` of each rate range, scaled
// down if any row would exceed 0.9), so u = b is a true fixpoint and
// steady_err_max measures controller convergence, not workload
// feasibility.
control::SparsePlantModel pin_reachable_set_points(
    control::SparsePlantModel model) {
  const std::size_t n = model.num_processors();
  Vector u_lo(n, 0.0), u_hi(n, 0.0);
  for (std::size_t q = 0; q < n; ++q)
    for (std::size_t k = model.f.row_begin(q); k < model.f.row_end(q); ++k) {
      u_lo[q] += model.f.value(k) * model.rate_min[model.f.col_index(k)];
      u_hi[q] += model.f.value(k) * model.rate_max[model.f.col_index(k)];
    }
  double t = 0.6;
  for (std::size_t q = 0; q < n; ++q)
    if (u_hi[q] > 0.9 && u_hi[q] > u_lo[q])
      t = std::min(t, (0.9 - u_lo[q]) / (u_hi[q] - u_lo[q]));
  t = std::max(t, 0.05);
  for (std::size_t q = 0; q < n; ++q)
    model.b[q] = u_lo[q] + t * (u_hi[q] - u_lo[q]);
  return model;
}

double percentile(std::vector<double> samples, double q) {
  EUCON_REQUIRE(!samples.empty(), "percentile of an empty sample set");
  std::sort(samples.begin(), samples.end());
  const double pos = q * static_cast<double>(samples.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples[lo] + frac * (samples[hi] - samples[lo]);
}

// Closed loop at one size: settle to steady state, then time `timed`
// sampling periods (controller update + plant step) with one measurement
// jiggled per period so every shard keeps doing real control work.
ScalePoint run_point(int n, std::size_t settle, std::size_t timed) {
  const rts::SystemSpec spec =
      workloads::chain_cluster(cluster(n, 2), 40 + static_cast<std::uint64_t>(n));
  const Vector r0 = spec.initial_rate_vector();

  const auto c0 = SteadyClock::now();
  const control::SparsePlantModel model =
      pin_reachable_set_points(control::make_sparse_plant_model(spec));
  control::HierarchicalParams hier;
  hier.shard_size = kShardSize;
  control::HierarchicalMpcController ctrl(model, scale_params(), hier, r0);
  const auto c1 = SteadyClock::now();

  ScalePoint pt;
  pt.processors = n;
  pt.tasks = model.num_tasks();
  pt.nnz = model.f.nnz();
  pt.shards = ctrl.num_shards();
  pt.max_shard_vars = ctrl.max_shard_problem_size();
  const auto [ws_vars, ws_cons] = ctrl.workspace_capacity();
  pt.workspace_vars = ws_vars;
  pt.workspace_cons = ws_cons;
  pt.construct_ms =
      std::chrono::duration<double, std::milli>(c1 - c0).count();

  control::SparseLinearPlant plant(
      model, Vector(model.num_processors(), 1.0), r0);
  Vector u = plant.utilization();
  for (std::size_t k = 0; k < settle; ++k) u = plant.step(ctrl.update(u));
  for (std::size_t p = 0; p < u.size(); ++p)
    pt.steady_err_max = std::max(pt.steady_err_max, std::abs(u[p] - model.b[p]));

  std::vector<double> us;
  us.reserve(timed);
  for (std::size_t k = 0; k < timed; ++k) {
    // Disturb one processor off its set point (outside the timed region)
    // so the period's QPs see a moving target, as a live cluster would.
    u = plant.utilization();
    const std::size_t hot = k % u.size();
    u[hot] = std::clamp(
        model.b[hot] + 0.03 * static_cast<double>(k % 3 - 1), 0.0, 1.0);
    const auto t0 = SteadyClock::now();
    const Vector& rates = ctrl.update(u);
    plant.step(rates);
    const auto t1 = SteadyClock::now();
    us.push_back(std::chrono::duration<double, std::micro>(t1 - t0).count());
  }
  pt.periods_timed = timed;
  pt.period_p50_us = percentile(us, 0.50);
  double sum = 0.0;
  for (double v : us) sum += v;
  pt.period_mean_us = sum / static_cast<double>(us.size());

  std::printf("%6d,%7zu,%8zu,%6zu,%8zu,%12.2f,%14.2f,%14.2f,%12.4f\n", n,
              pt.tasks, pt.nnz, pt.shards, pt.max_shard_vars, pt.construct_ms,
              pt.period_p50_us, pt.period_mean_us, pt.steady_err_max);
  return pt;
}

// Sharded vs central MPC on a square-F scenario (unique steady-state
// rates): both run the same closed loop; the sharded controller must land
// on the central fixpoint despite every local MPC seeing only its slice
// of the plant through the staggered Gauss–Seidel sweeps.
ParityPoint run_parity(int n, std::size_t periods) {
  const rts::SystemSpec spec =
      workloads::chain_cluster(cluster(n, 1), 90 + static_cast<std::uint64_t>(n));
  const Vector r0 = spec.initial_rate_vector();
  const control::SparsePlantModel model =
      pin_reachable_set_points(control::make_sparse_plant_model(spec));
  const Vector gains(model.num_processors(), 1.0);

  control::HierarchicalParams hier;
  hier.shard_size = 8;  // forces several shards and real boundary rows
  control::HierarchicalMpcController sharded(model, scale_params(), hier, r0);
  control::SparseLinearPlant plant_s(model, gains, r0);
  Vector u_s = plant_s.utilization();
  for (std::size_t k = 0; k < periods; ++k)
    u_s = plant_s.step(sharded.update(u_s));
  const Vector r_s = sharded.update(u_s);

  control::MpcController central(model.to_dense(), scale_params(), r0);
  control::SparseLinearPlant plant_c(model, gains, r0);
  Vector u_c = plant_c.utilization();
  for (std::size_t k = 0; k < periods; ++k)
    u_c = plant_c.step(central.update(u_c));
  const Vector r_c = central.update(u_c);

  ParityPoint pt;
  pt.processors = n;
  for (std::size_t j = 0; j < r_s.size(); ++j)
    pt.max_rate_gap_rel = std::max(
        pt.max_rate_gap_rel, std::abs(r_s[j] - r_c[j]) / std::abs(r_c[j]));
  for (std::size_t p = 0; p < u_s.size(); ++p) {
    pt.util_err_hier =
        std::max(pt.util_err_hier, std::abs(u_s[p] - model.b[p]));
    pt.util_err_central =
        std::max(pt.util_err_central, std::abs(u_c[p] - model.b[p]));
  }
  std::printf("parity n=%-4d max_rate_gap_rel=%.5f util_err_hier=%.5f "
              "util_err_central=%.5f\n",
              n, pt.max_rate_gap_rel, pt.util_err_hier, pt.util_err_central);
  return pt;
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
                  const std::vector<ScalePoint>& points,
                  const std::vector<ParityPoint>& parity, double blowup,
                  bool smoke) {
  std::ofstream out(path);
  EUCON_REQUIRE(out.good(), "cannot open JSON report path: " + path);
  out << "{\n";
  out << "  \"schema_version\": 1,\n";
  out << "  \"generated_by\": \"bench_scaling\",\n";
  out << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n";
  out << "  \"shard_size\": " << kShardSize << ",\n";
  out << "  \"points\": [\n";
  for (std::size_t i = 0; i < points.size(); ++i) {
    const ScalePoint& p = points[i];
    out << "    {\n";
    out << "      \"processors\": " << p.processors << ",\n";
    out << "      \"tasks\": " << p.tasks << ",\n";
    out << "      \"nnz\": " << p.nnz << ",\n";
    out << "      \"shards\": " << p.shards << ",\n";
    out << "      \"max_shard_vars\": " << p.max_shard_vars << ",\n";
    out << "      \"workspace_vars\": " << p.workspace_vars << ",\n";
    out << "      \"workspace_cons\": " << p.workspace_cons << ",\n";
    out << "      \"construct_ms\": " << json_number(p.construct_ms) << ",\n";
    out << "      \"periods_timed\": " << p.periods_timed << ",\n";
    out << "      \"period_p50_us\": " << json_number(p.period_p50_us) << ",\n";
    out << "      \"period_mean_us\": " << json_number(p.period_mean_us)
        << ",\n";
    out << "      \"steady_err_max\": " << json_number(p.steady_err_max)
        << "\n";
    out << "    }" << (i + 1 < points.size() ? "," : "") << "\n";
  }
  out << "  ],\n";
  out << "  \"parity\": [\n";
  for (std::size_t i = 0; i < parity.size(); ++i) {
    const ParityPoint& p = parity[i];
    out << "    {\"processors\": " << p.processors
        << ", \"max_rate_gap_rel\": " << json_number(p.max_rate_gap_rel)
        << ", \"util_err_hier\": " << json_number(p.util_err_hier)
        << ", \"util_err_central\": " << json_number(p.util_err_central)
        << "}" << (i + 1 < parity.size() ? "," : "") << "\n";
  }
  out << "  ],\n";
  out << "  \"blowup_10k_vs_1k\": " << json_number(blowup) << "\n";
  out << "}\n";
  EUCON_REQUIRE(out.good(), "failed writing JSON report: " + path);
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string json_path = "BENCH_SCALING.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: bench_scaling [--smoke] [--json PATH]\n");
      return 2;
    }
  }

  const std::size_t settle = smoke ? 60 : 150;
  const std::size_t timed = smoke ? 8 : 40;
  const std::size_t parity_periods = smoke ? 250 : 400;

  bench::ShapeChecks checks;
  std::printf("# Hierarchical control plane: closed-loop period cost vs n "
              "(shard_size=%zu)\n",
              kShardSize);
  bench::print_header({"procs", "tasks", "nnz", "shards", "max_shard_vars",
                       "construct_ms", "period_p50_us", "period_mean_us",
                       "steady_err_max"});
  std::vector<ScalePoint> points;
  for (const int n : bench::kScalingProcessorCounts)
    points.push_back(run_point(n, settle, timed));

  checks.expect(points.back().shards ==
                    (10000 + kShardSize - 1) / kShardSize,
                "10k processors shard into ceil(n / shard_size) local MPCs");

  const double blowup =
      points[4].period_p50_us / std::max(points[2].period_p50_us, 1e-9);
  std::printf("period cost blowup 10k vs 1k: %.2fx\n", blowup);

  std::printf("# Sharded vs central MPC parity (square F, unique "
              "steady-state rates)\n");
  std::vector<ParityPoint> parity;
  for (const int n : {16, 32, 128})
    parity.push_back(run_parity(n, parity_periods));
  for (const ParityPoint& p : parity) {
    checks.expect(p.util_err_central < 0.01,
                  "central MPC settles at n = " + std::to_string(p.processors));
  }

  write_report(json_path, points, parity, blowup, smoke);
  const bench::Violations violations =
      bench::check_report_file(json_path, bench::scaling_report_violations);
  if (!violations.empty()) {
    std::fprintf(stderr, "bench_scaling: %s failed schema validation\n",
                 json_path.c_str());
    return checks.finish("bench_scaling") +
           narrow<int>(violations.size());
  }
  std::printf("bench_scaling: wrote %s (schema valid)\n", json_path.c_str());
  return checks.finish("bench_scaling");
}
