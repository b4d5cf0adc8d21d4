// Scenario DSL parser properties (docs/steering.md): grid expansion counts,
// unknown-key / ill-typed rejection, seed stability, and a round-trip over
// every example file in examples/scenarios/.
#include "eucon/scenario.h"

#include <filesystem>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace eucon::scenario {
namespace {

Scenario parse(const std::string& json) { return parse_scenario(json); }

TEST(ScenarioParse, MinimalScenarioTakesSingletonDefaults) {
  const Scenario sc = parse(R"({"name": "m", "controllers": ["eucon"]})");
  EXPECT_EQ(sc.name, "m");
  EXPECT_EQ(sc.seed, 1u);
  EXPECT_EQ(sc.replicas, 1);
  ASSERT_EQ(sc.controllers.size(), 1u);
  EXPECT_EQ(sc.controllers[0], ControllerKind::kEucon);
  EXPECT_EQ(sc.workload_names, std::vector<std::string>{"simple"});
  EXPECT_EQ(sc.etf, std::vector<double>{1.0});
  EXPECT_EQ(sc.jitter, std::vector<double>{0.1});
  EXPECT_EQ(sc.loss, std::vector<double>{0.0});
  ASSERT_EQ(sc.distributions.size(), 1u);
  EXPECT_EQ(sc.distributions[0], rts::ExecDistribution::kUniform);
  ASSERT_EQ(sc.fault_plans.size(), 1u);
  EXPECT_TRUE(sc.fault_plans[0].empty());
  EXPECT_EQ(sc.num_instances(), 1u);
}

TEST(ScenarioParse, GridExpansionCountIsTheAxisProduct) {
  const Scenario sc = parse(R"({
    "name": "grid", "replicas": 3,
    "controllers": ["eucon", "open"],
    "workloads": ["simple", "medium"],
    "etf": [0.5, 1.0, 1.5],
    "jitter": [0.1, 0.3],
    "loss": [0.0, 0.1],
    "distributions": ["uniform", "bimodal"]
  })");
  // 2 workloads x 3 etf x 2 jitter x 2 loss x 2 distributions x 1 plan.
  EXPECT_EQ(sc.num_instances(), 48u);
  const std::vector<ExperimentSpec> specs = expand(sc);
  // controllers x instances x replicas.
  EXPECT_EQ(specs.size(), 2u * 48u * 3u);
}

TEST(ScenarioParse, RandomFamilyAppendsToWorkloadAxis) {
  const Scenario sc = parse(R"({
    "name": "rnd", "controllers": ["eucon"],
    "workloads": ["simple"],
    "random_workloads": {"count": 3, "processors": 3, "tasks": 5,
                         "min_chain": 2, "max_chain": 3}
  })");
  EXPECT_EQ(sc.num_workloads(), 4u);
  EXPECT_EQ(sc.num_instances(), 4u);
  // Random members are real task sets with the requested shape.
  const rts::SystemSpec spec = workload_spec(sc, 3);
  EXPECT_EQ(spec.num_processors, 3);
  EXPECT_EQ(spec.num_tasks(), 5u);
}

TEST(ScenarioParse, UnknownTopLevelKeyIsRejected) {
  EXPECT_THROW(parse(R"({"name": "x", "controllers": ["eucon"],
                         "workload": ["simple"]})"),
               std::invalid_argument);
}

TEST(ScenarioParse, UnknownRandomWorkloadsKeyIsRejected) {
  EXPECT_THROW(parse(R"({"name": "x", "controllers": ["eucon"],
                         "random_workloads": {"count": 1, "chains": 2}})"),
               std::invalid_argument);
}

TEST(ScenarioParse, IllTypedValuesAreRejected) {
  // String where a number is required.
  EXPECT_THROW(parse(R"({"name": "x", "controllers": ["eucon"],
                         "replicas": "three"})"),
               std::invalid_argument);
  // Scalar where an array is required.
  EXPECT_THROW(parse(R"({"name": "x", "controllers": "eucon"})"),
               std::invalid_argument);
  // Non-integer where an integer is required.
  EXPECT_THROW(parse(R"({"name": "x", "controllers": ["eucon"],
                         "periods": 10.5})"),
               std::invalid_argument);
  // Unknown enum spellings.
  EXPECT_THROW(parse(R"({"name": "x", "controllers": ["lqr"]})"),
               std::invalid_argument);
  EXPECT_THROW(parse(R"({"name": "x", "controllers": ["eucon"],
                         "distributions": ["gaussian"]})"),
               std::invalid_argument);
  EXPECT_THROW(parse(R"({"name": "x", "controllers": ["eucon"],
                         "workloads": ["gigantic"]})"),
               std::invalid_argument);
}

TEST(ScenarioParse, NullValuesAreRejected) {
  EXPECT_THROW(parse(R"({"name": null, "controllers": ["eucon"]})"),
               std::invalid_argument);
  EXPECT_THROW(parse(R"({"name": "x", "controllers": ["eucon"],
                         "etf": [0.5, null]})"),
               std::invalid_argument);
  // A null inside an embedded fault plan reaches the plan's own parser.
  EXPECT_THROW(parse(R"({"name": "x", "controllers": ["eucon"],
                         "fault_plans": [{"seed": null}]})"),
               std::invalid_argument);
}

TEST(ScenarioParse, MalformedJsonIsRejected) {
  EXPECT_THROW(parse(""), std::invalid_argument);
  EXPECT_THROW(parse("{"), std::invalid_argument);
  EXPECT_THROW(parse(R"({"name": "x" "controllers": ["eucon"]})"),
               std::invalid_argument);
  EXPECT_THROW(parse(R"({"name": "x", "controllers": ["eucon"]} trailing)"),
               std::invalid_argument);
}

TEST(ScenarioParse, EmptyAxesAreRejected) {
  EXPECT_THROW(parse(R"({"name": "x", "controllers": []})"),
               std::invalid_argument);
  EXPECT_THROW(parse(R"({"name": "x", "controllers": ["eucon"],
                         "etf": []})"),
               std::invalid_argument);
}

TEST(ScenarioValidate, RejectsOutOfRangeValues) {
  Scenario sc = parse(R"({"name": "x", "controllers": ["eucon"]})");
  sc.replicas = 0;
  EXPECT_THROW(sc.validate(), std::invalid_argument);
  sc = parse(R"({"name": "x", "controllers": ["eucon"]})");
  sc.etf = {0.0};
  EXPECT_THROW(sc.validate(), std::invalid_argument);
  sc = parse(R"({"name": "x", "controllers": ["eucon"]})");
  sc.loss = {1.0};
  EXPECT_THROW(sc.validate(), std::invalid_argument);
  sc = parse(R"({"name": "x", "controllers": ["eucon"]})");
  sc.periods = 0;
  EXPECT_THROW(sc.validate(), std::invalid_argument);
}

TEST(ScenarioValidate, FaultPlanIsCheckedAgainstEveryWorkload) {
  // Lane 5 does not exist on simple's 2 processors: the scenario must be
  // rejected up front rather than exploding mid-batch.
  EXPECT_THROW(parse(R"({
    "name": "x", "controllers": ["eucon"], "workloads": ["simple"],
    "fault_plans": [{"lane_outages": [{"lane": 5, "start": 1,
                                       "duration": 2}]}]
  })"),
               std::invalid_argument);
}

TEST(ScenarioSeeds, SameTextParsesToIdenticalExpansion) {
  const std::string text = R"({
    "name": "twin", "seed": 99, "replicas": 2,
    "controllers": ["eucon", "pid"],
    "workloads": ["simple"],
    "random_workloads": {"count": 2, "processors": 3, "tasks": 4,
                         "min_chain": 1, "max_chain": 3},
    "etf": [0.5, 1.2]
  })";
  const std::vector<ExperimentSpec> a = expand(parse(text));
  const std::vector<ExperimentSpec> b = expand(parse(text));
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].name, b[i].name) << i;
    EXPECT_EQ(a[i].config.sim.seed, b[i].config.sim.seed) << i;
    EXPECT_EQ(a[i].config.controller, b[i].config.controller) << i;
    EXPECT_EQ(a[i].config.spec.num_tasks(), b[i].config.spec.num_tasks()) << i;
  }
}

TEST(ScenarioSeeds, PullSeedsAreDistinctStreams) {
  std::set<std::uint64_t> seeds;
  for (std::size_t t = 1; t <= 1000; ++t) seeds.insert(pull_seed(42, t));
  EXPECT_EQ(seeds.size(), 1000u);
  // Different bases give different streams.
  EXPECT_NE(pull_seed(1, 1), pull_seed(2, 1));
}

TEST(ScenarioSeeds, PullInstancesCycleTheGridRoundRobin) {
  const Scenario sc = parse(R"({
    "name": "cyc", "controllers": ["eucon"],
    "etf": [0.5, 1.0, 1.5]
  })");
  ASSERT_EQ(sc.num_instances(), 3u);
  for (std::size_t t = 1; t <= 9; ++t)
    EXPECT_EQ(pull_instance(sc, t), (t - 1) % 3) << t;
}

TEST(ScenarioSeeds, ExpansionIsThePairedPullSchedule) {
  // expand() must equal the never-eliminating steering schedule: same
  // (instance, seed) sequence for every controller, so the exhaustive grid
  // and steering are comparable run for run.
  const Scenario sc = parse(R"({
    "name": "paired", "replicas": 2,
    "controllers": ["eucon", "open"],
    "etf": [0.5, 1.0]
  })");
  const std::vector<ExperimentSpec> specs = expand(sc);
  const std::size_t pulls = sc.num_instances() * 2u;
  ASSERT_EQ(specs.size(), 2u * pulls);
  for (std::size_t t = 1; t <= pulls; ++t) {
    const ExperimentSpec& eucon_spec = specs[t - 1];
    const ExperimentSpec& open_spec = specs[pulls + t - 1];
    EXPECT_EQ(eucon_spec.config.sim.seed, pull_seed(sc.seed, t));
    EXPECT_EQ(eucon_spec.config.sim.seed, open_spec.config.sim.seed) << t;
    EXPECT_EQ(eucon_spec.config.sim.etf.factor_at(0),
              open_spec.config.sim.etf.factor_at(0))
        << t;
    // Both are the pull the steering loop builds for the same index.
    EXPECT_EQ(eucon_spec.name,
              pull_spec(sc, ControllerKind::kEucon, t).name);
    EXPECT_EQ(open_spec.name, pull_spec(sc, ControllerKind::kOpen, t).name);
  }
  EXPECT_EQ(specs[pulls].name, "paired/OPEN/simple/etf0.5/j0.1/l0/uniform/f0#0");
  EXPECT_EQ(specs[pulls - 1].name,
            "paired/EUCON/simple/etf1/j0.1/l0/uniform/f0#1");
}

TEST(ScenarioLabels, InstanceLabelsAreUniqueAndStable) {
  const Scenario sc = parse(R"({
    "name": "lbl", "controllers": ["eucon"],
    "workloads": ["simple", "medium"],
    "etf": [0.5, 1.0], "loss": [0.0, 0.1]
  })");
  std::set<std::string> labels;
  for (std::size_t i = 0; i < sc.num_instances(); ++i) {
    const std::string label = instance_label(sc, i);
    EXPECT_EQ(label, instance_label(sc, i));
    labels.insert(label);
  }
  EXPECT_EQ(labels.size(), sc.num_instances());
}

TEST(ScenarioFiles, EveryExampleScenarioRoundTrips) {
  const std::filesystem::path dir = EUCON_SCENARIO_DIR;
  ASSERT_TRUE(std::filesystem::is_directory(dir)) << dir;
  std::size_t seen = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() != ".json") continue;
    ++seen;
    SCOPED_TRACE(entry.path().string());
    const Scenario sc = load_scenario_file(entry.path().string());
    EXPECT_FALSE(sc.name.empty());
    EXPECT_NO_THROW(sc.validate());
    // Expansion is deterministic: loading twice produces the same specs.
    const Scenario again = load_scenario_file(entry.path().string());
    const std::vector<ExperimentSpec> a = expand(sc);
    const std::vector<ExperimentSpec> b = expand(again);
    ASSERT_EQ(a.size(), b.size());
    ASSERT_GT(a.size(), 0u);
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].name, b[i].name);
      EXPECT_EQ(a[i].config.sim.seed, b[i].config.sim.seed);
    }
  }
  // The shipped examples must be present (a renamed directory should fail
  // loudly, not silently skip the round-trip).
  EXPECT_GE(seen, 2u);
}

TEST(ScenarioFiles, MissingFileThrowsRuntimeError) {
  EXPECT_THROW(load_scenario_file("/nonexistent/scenario.json"),
               std::runtime_error);
}

}  // namespace
}  // namespace eucon::scenario
