#include "harness/workloads.h"

#include <cstdio>

#include "common/check.h"
#include "eucon/scenario.h"
#include "eucon/workloads.h"

namespace perfbench {

namespace {

// large_etf: sixteen 300-period runs (about 5 s) give the quality metrics.
// cluster_des: ten 150-period runs (about 27 s at 4 vCPU) over a fixed
// panel of ten task sets; one run costs about 2.7 s, so the traced pass
// uses one input set and repeats it. campaign: eight 192-run batches
// (about 13 s).
constexpr Workload kWorkloads[] = {
    {"large_etf", WorkloadKind::kLargeEtf, 16, 16},
    {"cluster_des", WorkloadKind::kClusterDes, 10, 1},
    {"campaign", WorkloadKind::kCampaign, 8, 0},
};

constexpr double kTs = 1000.0;  // sampling period, time units (Table 2)

// The panel of cluster_des task sets: fixed, so that the spread of
// miss_ratio across seeds reflects execution-time jitter rather than which
// ten of the generator's task sets a seed happened to draw (their per-run
// miss ratios differ by a factor of four).
constexpr std::uint64_t kClusterPanelBase = 4100;

// The scenario DSL caps seeds at 1e15.
constexpr std::uint64_t kScenarioSeedLimit = 1000000000000000ULL;

eucon::ExperimentConfig large_etf(std::uint64_t sim_seed) {
  eucon::ExperimentConfig cfg;
  cfg.spec = eucon::workloads::large();
  cfg.mpc = eucon::workloads::medium_controller_params();
  cfg.controller = eucon::ControllerKind::kEucon;
  cfg.sampling_period = kTs;
  cfg.num_periods = 300;
  // The load-step profile of the paper's Figs. 6-8: etf steps every 100
  // periods, so the QP re-solves through active constraints after each.
  cfg.sim.etf = eucon::rts::EtfProfile::steps(
      {{0.0, 0.5}, {100 * kTs, 0.9}, {200 * kTs, 0.33}});
  cfg.sim.jitter = 0.1;
  cfg.sim.seed = sim_seed;
  return cfg;
}

eucon::ExperimentConfig cluster_des(std::size_t panel_index,
                                    std::uint64_t sim_seed) {
  eucon::workloads::ChainClusterParams params;
  params.num_processors = 256;
  params.tasks_per_processor = 2;
  params.chain_length = 3;
  params.subtask_decay = 0.15;
  eucon::ExperimentConfig cfg;
  cfg.spec = eucon::workloads::chain_cluster(params,
                                             kClusterPanelBase + panel_index);
  cfg.controller = eucon::ControllerKind::kHierarchical;
  // bench_scaling's settings: the SIMPLE horizon with soft constraints.
  cfg.mpc.prediction_horizon = 2;
  cfg.mpc.control_horizon = 1;
  cfg.mpc.tref_over_ts = 4.0;
  cfg.mpc.constraint_mode = eucon::control::ConstraintMode::kSoftOnly;
  cfg.hier.shard_size = 32;
  cfg.sampling_period = kTs;
  cfg.num_periods = 150;
  cfg.sim.etf = eucon::rts::EtfProfile::constant(1.0);
  cfg.sim.jitter = 0.1;
  cfg.sim.seed = sim_seed;
  return cfg;
}

eucon::scenario::Scenario campaign_scenario(std::uint64_t seed,
                                            std::size_t unit) {
  const Workload w = *find_workload("campaign");
  const std::uint64_t scenario_seed =
      eucon::batch_run_seed(seed, unit % w.quality_units) % kScenarioSeedLimit;
  char text[512];
  std::snprintf(text, sizeof text,
                R"({"name": "campaign", "seed": %llu, "periods": 300,)"
                R"( "replicas": 8, "controllers": ["eucon", "deucon", "pid"],)"
                R"( "workloads": ["simple", "medium"], "etf": [0.5, 1.0],)"
                R"( "loss": [0.0, 0.2]})",
                static_cast<unsigned long long>(scenario_seed));
  return eucon::scenario::parse_scenario(text);
}

}  // namespace

std::optional<Workload> find_workload(const std::string& name) {
  for (const Workload& w : kWorkloads)
    if (name == w.name) return w;
  return std::nullopt;
}

std::vector<std::string> workload_names() {
  std::vector<std::string> names;
  for (const Workload& w : kWorkloads) names.emplace_back(w.name);
  return names;
}

eucon::ExperimentConfig unit_config(const Workload& w, std::uint64_t seed,
                                    std::size_t unit) {
  const std::size_t input = unit % w.quality_units;
  const std::uint64_t sim_seed = eucon::batch_run_seed(seed, input);
  switch (w.kind) {
    case WorkloadKind::kLargeEtf:
      return large_etf(sim_seed);
    case WorkloadKind::kClusterDes:
      return cluster_des(input, sim_seed);
    case WorkloadKind::kCampaign:
      break;
  }
  EUCON_FAIL_INVALID(std::string(w.name) + " is not a single-run workload");
}

std::vector<eucon::ExperimentSpec> campaign_specs(std::uint64_t seed,
                                                  std::size_t unit) {
  return eucon::scenario::expand(campaign_scenario(seed, unit));
}

std::vector<eucon::ExperimentSpec> campaign_cells(std::uint64_t seed) {
  const eucon::scenario::Scenario sc = campaign_scenario(seed, 0);
  std::vector<eucon::ExperimentSpec> all = eucon::scenario::expand(sc);
  // expand() is controller-major, and within a controller the first
  // num_instances() pulls visit every cell once.
  const std::size_t instances = sc.num_instances();
  const std::size_t per_controller =
      instances * static_cast<std::size_t>(sc.replicas);
  std::vector<eucon::ExperimentSpec> cells;
  for (std::size_t c = 0; c < sc.controllers.size(); ++c)
    for (std::size_t i = 0; i < instances; ++i)
      cells.push_back(std::move(all[c * per_controller + i]));
  return cells;
}

}  // namespace perfbench
