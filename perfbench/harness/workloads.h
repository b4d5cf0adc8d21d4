// The benchmark's workloads: inputs generated from the workload seed and
// handed to the library through its public API.
//
// Every workload is measured in units of work. A unit is one
// run_experiment call (large_etf, cluster_des) or one run_batch call
// (campaign). Unit i uses input set (i mod quality_units): the first
// quality_units units see distinct inputs and give the control-quality
// metrics, so those are a pure function of the seed; later units repeat
// them for more timing samples. NOTES.md gives the reason for each
// workload.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "eucon/experiment.h"

namespace perfbench {

enum class WorkloadKind { kLargeEtf, kClusterDes, kCampaign };

struct Workload {
  const char* name;
  WorkloadKind kind;
  std::size_t quality_units;
  // Inputs of the traced pass: the first traced_inputs input sets (the
  // campaign's pass is one replica of every grid cell instead).
  std::size_t traced_inputs;
};

std::optional<Workload> find_workload(const std::string& name);
std::vector<std::string> workload_names();

// The run_experiment config of unit `unit` of a DES workload
// (large_etf or cluster_des).
eucon::ExperimentConfig unit_config(const Workload& w, std::uint64_t seed,
                                    std::size_t unit);

// The campaign grid: a scenario-DSL text expanded into run specs, the
// same path as the CLI's exhaustive steering grid.
std::vector<eucon::ExperimentSpec> campaign_specs(std::uint64_t seed,
                                                  std::size_t unit);

// One spec per campaign grid cell (the first replica of every cell under
// every controller), taken from campaign_specs(seed, 0).
std::vector<eucon::ExperimentSpec> campaign_cells(std::uint64_t seed);

// Worker threads of the campaign's run_batch calls.
inline constexpr std::size_t kCampaignWorkers = 4;

}  // namespace perfbench
