// Scenario DSL: declarative descriptions of experiment *families*.
//
// The paper's evaluation stops at two hand-built workloads under fixed seed
// grids. A Scenario describes a whole family instead: a cartesian grid of
// workloads (built-in and generated), execution-time factors, jitter
// half-widths, report-loss rates, execution-time shapes and fault plans,
// crossed with a set of controllers to compare. The grid expands into
// deterministic, seedable vectors of ExperimentSpec that run_batch (and the
// steering layer in eucon/steer.h) consume.
//
// The JSON schema (docs/steering.md) follows the fault-plan parser's
// contract: dependency-free recursive descent, unknown keys are an error so
// a typoed axis never silently collapses the grid, and parsing the same
// text twice yields identical scenarios — same expansion, same seeds,
// byte-for-byte the same downstream traces.
//
// Thread contract: Scenario is an immutable value after parsing; expansion
// helpers are pure functions of (scenario, indices).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "eucon/experiment.h"
#include "eucon/faults.h"
#include "eucon/workloads.h"
#include "rts/etf.h"
#include "rts/spec.h"

namespace eucon::scenario {

// A family of deterministically generated random task sets appended to the
// workload axis after the built-in names. count = 0 (default) disables it.
struct RandomFamily {
  int count = 0;
  workloads::RandomWorkloadParams params;
};

struct Scenario {
  std::string name;
  std::uint64_t seed = 1;          // base of every derived replication seed
  int periods = 120;               // sampling periods per run
  double sampling_period = 1000.0; // Ts in time units
  int replicas = 1;                // fixed-grid replications per cell

  // The comparison axis: controllers under test (>= 1 required).
  std::vector<ControllerKind> controllers;

  // Instance axes. Empty axes take the singleton defaults noted here, so a
  // minimal scenario is just {"name", "controllers"}.
  std::vector<std::string> workload_names;  // default {"simple"}
  RandomFamily random;                      // appended generated workloads
  std::vector<double> etf;                  // default {1.0}
  std::vector<double> jitter;               // default {0.1}
  std::vector<double> loss;                 // default {0.0}
  std::vector<rts::ExecDistribution> distributions;  // default {kUniform}
  std::vector<faults::FaultPlan> fault_plans;        // default {empty plan}

  // Number of workloads on the axis: built-ins plus the random family.
  std::size_t num_workloads() const;
  // Product of the instance-axis sizes (excludes controllers and replicas).
  std::size_t num_instances() const;
  // Throws std::invalid_argument on an ill-formed scenario (no controllers,
  // empty axes after defaults, bad probabilities, non-positive periods).
  void validate() const;
};

// Parses the JSON scenario schema (docs/steering.md). Unknown keys and
// ill-typed values are std::invalid_argument with a one-line message.
Scenario parse_scenario(const std::string& json);
// Reads `path` and parses it; throws std::runtime_error when unreadable.
Scenario load_scenario_file(const std::string& path);

const char* distribution_name(rts::ExecDistribution distribution);
// Accepts "uniform", "exponential", "bimodal"; throws otherwise.
rts::ExecDistribution parse_distribution(const std::string& name);
// Accepts the CLI controller spellings ("eucon", "open", "pid", "deucon",
// "adaptive", "fcs-ind", "hier"); throws std::invalid_argument otherwise.
ControllerKind parse_controller_kind(const std::string& name);

// The task set of workload-axis entry `workload` (0-based: built-ins in
// declaration order, then the random family). Pure and deterministic —
// random family members derive their generator seed from the scenario seed.
rts::SystemSpec workload_spec(const Scenario& sc, std::size_t workload);

// The seed of pull `pull_index` (1-based) under scenario seed `base`:
// independent SplitMix64 streams, shared by every arm so controller
// comparisons are paired (common random numbers).
std::uint64_t pull_seed(std::uint64_t base, std::size_t pull_index);

// The grid cell visited by pull `pull_index` (1-based): pulls cycle the
// instance grid round-robin, so equal pull counts always cover identical
// instance multisets across arms.
std::size_t pull_instance(const Scenario& sc, std::size_t pull_index);

// Human-readable label of instance `instance` (0-based), stable across
// calls: "<workload>/etf<..>/j<..>/l<..>/<dist>/f<..>" with constant-width
// axis indices.
std::string instance_label(const Scenario& sc, std::size_t instance);

// The full configuration of one run: instance `instance` (0-based) under
// `controller` with simulation seed `seed`. Pure function of its arguments.
ExperimentConfig instance_config(const Scenario& sc, std::size_t instance,
                                 ControllerKind controller,
                                 std::uint64_t seed);

// Expands the fixed grid: for every controller, pulls 1..instances*replicas
// in pull order (instance cycling + pull_seed), so an exhaustive run is
// exactly the never-eliminating steering schedule. Spec names encode
// "<scenario>/<controller>/<instance label>#<replica>".
std::vector<ExperimentSpec> expand(const Scenario& sc);

}  // namespace eucon::scenario
