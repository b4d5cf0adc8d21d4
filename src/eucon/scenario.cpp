#include "eucon/scenario.h"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <utility>

#include "common/check.h"
#include "common/csv.h"
#include "common/rng.h"
#include "eucon/json_reader.h"

namespace eucon::scenario {

namespace {

// Stream constant separating the random-workload generator seeds from the
// pull-seed stream derived from the same scenario seed.
constexpr std::uint64_t kRandomWorkloadStream = 0x5ce11a21;

const std::vector<std::string>& builtin_names() {
  static const std::vector<std::string> names = {"simple", "simple-relaxed",
                                                 "medium", "large"};
  return names;
}

bool is_builtin(const std::string& name) {
  for (const std::string& n : builtin_names())
    if (n == name) return true;
  return false;
}

rts::SystemSpec builtin_spec(const std::string& name) {
  if (name == "simple") return workloads::simple();
  if (name == "simple-relaxed") return workloads::simple_relaxed();
  if (name == "medium") return workloads::medium();
  if (name == "large") return workloads::large();
  EUCON_FAIL_INVALID("scenario: unknown workload \"" + name +
                     "\" (expected simple, simple-relaxed, medium or large)");
}

}  // namespace

std::size_t Scenario::num_workloads() const {
  return workload_names.size() + static_cast<std::size_t>(random.count);
}

std::size_t Scenario::num_instances() const {
  return num_workloads() * etf.size() * jitter.size() * loss.size() *
         distributions.size() * fault_plans.size();
}

void Scenario::validate() const {
  EUCON_REQUIRE(!controllers.empty(),
                "scenario needs at least one controller");
  EUCON_REQUIRE(periods >= 1, "scenario periods must be at least 1");
  EUCON_REQUIRE(sampling_period > 0.0,
                "scenario sampling_period must be positive");
  EUCON_REQUIRE(replicas >= 1, "scenario replicas must be at least 1");
  EUCON_REQUIRE(random.count >= 0,
                "scenario random_workloads.count must be non-negative");
  EUCON_REQUIRE(num_workloads() > 0,
                "scenario needs at least one workload (built-in or random)");
  for (const std::string& name : workload_names)
    if (!is_builtin(name))
      EUCON_FAIL_INVALID("scenario: unknown workload \"" + name + "\"");
  EUCON_REQUIRE(!etf.empty() && !jitter.empty() && !loss.empty() &&
                    !distributions.empty() && !fault_plans.empty(),
                "scenario axes must be non-empty (apply_defaults missing?)");
  for (const double g : etf)
    EUCON_REQUIRE(g > 0.0, "scenario etf values must be positive");
  for (const double j : jitter)
    EUCON_REQUIRE(j >= 0.0 && j < 1.0, "scenario jitter must be in [0, 1)");
  for (const double p : loss)
    EUCON_REQUIRE(p >= 0.0 && p < 1.0, "scenario loss must be in [0, 1)");
  // Every fault plan must be valid on every workload of the axis, so a bad
  // lane index fails at load time instead of mid-steering.
  for (std::size_t w = 0; w < num_workloads(); ++w) {
    const rts::SystemSpec spec = workload_spec(*this, w);
    for (const faults::FaultPlan& plan : fault_plans)
      plan.validate(spec.num_processors);
  }
}

rts::SystemSpec workload_spec(const Scenario& sc, std::size_t workload) {
  EUCON_REQUIRE(workload < sc.num_workloads(),
                "scenario workload index out of range");
  if (workload < sc.workload_names.size())
    return builtin_spec(sc.workload_names[workload]);
  const std::size_t r = workload - sc.workload_names.size();
  std::uint64_t state = sc.seed ^ (kRandomWorkloadStream + r);
  return workloads::random_workload(sc.random.params, splitmix64_next(state));
}

std::uint64_t pull_seed(std::uint64_t base, std::size_t pull_index) {
  std::uint64_t state =
      base ^ (0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(pull_index));
  return splitmix64_next(state);
}

std::size_t pull_instance(const Scenario& sc, std::size_t pull_index) {
  EUCON_REQUIRE(pull_index >= 1, "pull indices are 1-based");
  return (pull_index - 1) % sc.num_instances();
}

namespace {

// Decomposed instance-axis indices, row-major with the workload axis
// slowest and the fault-plan axis fastest.
struct InstanceCell {
  std::size_t workload = 0;
  std::size_t etf = 0;
  std::size_t jitter = 0;
  std::size_t loss = 0;
  std::size_t distribution = 0;
  std::size_t fault_plan = 0;
};

InstanceCell decompose(const Scenario& sc, std::size_t instance) {
  EUCON_REQUIRE(instance < sc.num_instances(),
                "scenario instance index out of range");
  InstanceCell cell;
  cell.fault_plan = instance % sc.fault_plans.size();
  instance /= sc.fault_plans.size();
  cell.distribution = instance % sc.distributions.size();
  instance /= sc.distributions.size();
  cell.loss = instance % sc.loss.size();
  instance /= sc.loss.size();
  cell.jitter = instance % sc.jitter.size();
  instance /= sc.jitter.size();
  cell.etf = instance % sc.etf.size();
  instance /= sc.etf.size();
  cell.workload = instance;
  return cell;
}

std::string workload_label(const Scenario& sc, std::size_t workload) {
  if (workload < sc.workload_names.size()) return sc.workload_names[workload];
  return "random" + std::to_string(workload - sc.workload_names.size());
}

}  // namespace

std::string instance_label(const Scenario& sc, std::size_t instance) {
  const InstanceCell cell = decompose(sc, instance);
  std::string label = workload_label(sc, cell.workload);
  label += "/etf" + CsvWriter::format_double(sc.etf[cell.etf]);
  label += "/j" + CsvWriter::format_double(sc.jitter[cell.jitter]);
  label += "/l" + CsvWriter::format_double(sc.loss[cell.loss]);
  label += "/";
  label += distribution_name(sc.distributions[cell.distribution]);
  label += "/f" + std::to_string(cell.fault_plan);
  return label;
}

ExperimentConfig instance_config(const Scenario& sc, std::size_t instance,
                                 ControllerKind controller,
                                 std::uint64_t seed) {
  const InstanceCell cell = decompose(sc, instance);
  ExperimentConfig cfg;
  cfg.spec = workload_spec(sc, cell.workload);
  const bool simple_family =
      cell.workload < sc.workload_names.size() &&
      (sc.workload_names[cell.workload] == "simple" ||
       sc.workload_names[cell.workload] == "simple-relaxed");
  cfg.mpc = simple_family ? workloads::simple_controller_params()
                          : workloads::medium_controller_params();
  cfg.controller = controller;
  cfg.sampling_period = sc.sampling_period;
  cfg.num_periods = sc.periods;
  cfg.sim.etf = rts::EtfProfile::constant(sc.etf[cell.etf]);
  cfg.sim.jitter = sc.jitter[cell.jitter];
  cfg.sim.exec_distribution = sc.distributions[cell.distribution];
  cfg.sim.seed = seed;
  cfg.report_loss_probability = sc.loss[cell.loss];
  cfg.faults = sc.fault_plans[cell.fault_plan];
  return cfg;
}

std::vector<ExperimentSpec> expand(const Scenario& sc) {
  sc.validate();
  const std::size_t instances = sc.num_instances();
  const std::size_t pulls =
      instances * static_cast<std::size_t>(sc.replicas);
  std::vector<ExperimentSpec> specs;
  specs.reserve(sc.controllers.size() * pulls);
  for (const ControllerKind controller : sc.controllers) {
    for (std::size_t t = 1; t <= pulls; ++t) {
      const std::size_t instance = pull_instance(sc, t);
      ExperimentSpec spec;
      spec.name = sc.name + "/" + controller_kind_name(controller) + "/" +
                  instance_label(sc, instance) + "#" +
                  std::to_string((t - 1) / instances);
      spec.config =
          instance_config(sc, instance, controller, pull_seed(sc.seed, t));
      specs.push_back(std::move(spec));
    }
  }
  return specs;
}

const char* distribution_name(rts::ExecDistribution distribution) {
  switch (distribution) {
    case rts::ExecDistribution::kUniform:
      return "uniform";
    case rts::ExecDistribution::kExponential:
      return "exponential";
    case rts::ExecDistribution::kBimodal:
      return "bimodal";
  }
  return "?";
}

rts::ExecDistribution parse_distribution(const std::string& name) {
  if (name == "uniform") return rts::ExecDistribution::kUniform;
  if (name == "exponential") return rts::ExecDistribution::kExponential;
  if (name == "bimodal") return rts::ExecDistribution::kBimodal;
  EUCON_FAIL_INVALID("scenario: unknown distribution \"" + name +
                     "\" (expected uniform, exponential or bimodal)");
}

ControllerKind parse_controller_kind(const std::string& name) {
  if (name == "eucon") return ControllerKind::kEucon;
  if (name == "open") return ControllerKind::kOpen;
  if (name == "pid") return ControllerKind::kPid;
  if (name == "deucon") return ControllerKind::kDecentralized;
  if (name == "adaptive") return ControllerKind::kAdaptive;
  if (name == "fcs-ind") return ControllerKind::kUncoordinated;
  if (name == "hier") return ControllerKind::kHierarchical;
  EUCON_FAIL_INVALID("scenario: unknown controller \"" + name +
                     "\" (expected eucon, open, pid, deucon, adaptive, "
                     "fcs-ind or hier)");
}

// ---------------------------------------------------------------------------
// Scenario parsing through the shared JSON reader. Numbers keep their raw
// token text, so embedded fault-plan objects are re-rendered
// byte-faithfully and handed to faults::parse_fault_plan (one schema, one
// validator). Unlike a fault plan, a scenario rejects empty arrays: an
// empty axis would silently collapse the grid.
// ---------------------------------------------------------------------------

namespace {

constexpr json::Schema kScenario("scenario", /*allow_empty_arrays=*/false);

std::vector<double> as_number_array(const json::Value& v,
                                    const std::string& key) {
  std::vector<double> out;
  for (const json::Value& item : kScenario.array(v, key))
    out.push_back(kScenario.number(item, key + " entry"));
  return out;
}

// Re-renders a parsed value as compact JSON. Number tokens are emitted
// verbatim, so the round trip through faults::parse_fault_plan sees exactly
// the bytes the scenario file carried.
void render_json(const json::Value& v, std::string& out) {
  switch (v.kind) {
    case json::Value::Kind::kBool:
      out += v.boolean ? "true" : "false";
      return;
    case json::Value::Kind::kNumber:
      out += v.number_text;
      return;
    case json::Value::Kind::kString:
      out += '"';
      for (const char c : v.string) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          case '\r': out += "\\r"; break;
          default: out += c;
        }
      }
      out += '"';
      return;
    case json::Value::Kind::kArray:
      out += '[';
      for (std::size_t i = 0; i < v.items.size(); ++i) {
        if (i > 0) out += ',';
        render_json(v.items[i], out);
      }
      out += ']';
      return;
    case json::Value::Kind::kObject:
      out += '{';
      for (std::size_t i = 0; i < v.members.size(); ++i) {
        if (i > 0) out += ',';
        out += '"';
        out += v.members[i].first;
        out += "\":";
        render_json(v.members[i].second, out);
      }
      out += '}';
      return;
  }
}

RandomFamily parse_random_family(const json::Value& v) {
  RandomFamily family;
  workloads::RandomWorkloadParams& params = family.params;
  kScenario.for_each_member(
      v, "random_workloads",
      [&](const std::string& key, const json::Value& val) {
        if (key == "count") family.count = kScenario.integer(val, key);
        else if (key == "processors")
          params.num_processors = kScenario.integer(val, key);
        else if (key == "tasks") params.num_tasks = kScenario.integer(val, key);
        else if (key == "min_chain")
          params.min_chain = kScenario.integer(val, key);
        else if (key == "max_chain")
          params.max_chain = kScenario.integer(val, key);
        else if (key == "min_exec") params.min_exec = kScenario.number(val, key);
        else if (key == "max_exec") params.max_exec = kScenario.number(val, key);
        else if (key == "min_period")
          params.min_period = kScenario.number(val, key);
        else if (key == "max_period")
          params.max_period = kScenario.number(val, key);
        else return false;
        return true;
      });
  return family;
}

}  // namespace

Scenario parse_scenario(const std::string& text) {
  const json::Value root = kScenario.parse(text);
  Scenario sc;
  kScenario.for_each_member(root, "scenario", [&](const std::string& key,
                                                  const json::Value& v) {
    if (key == "name") {
      sc.name = kScenario.string(v, key);
    } else if (key == "seed") {
      sc.seed = kScenario.u64(v, key);
    } else if (key == "periods") {
      sc.periods = kScenario.integer(v, key);
    } else if (key == "sampling_period") {
      sc.sampling_period = kScenario.number(v, key);
    } else if (key == "replicas") {
      sc.replicas = kScenario.integer(v, key);
    } else if (key == "controllers") {
      for (const json::Value& item : kScenario.array(v, key))
        sc.controllers.push_back(parse_controller_kind(
            kScenario.string(item, "controllers entry")));
    } else if (key == "workloads") {
      for (const json::Value& item : kScenario.array(v, key)) {
        const std::string& name = kScenario.string(item, "workloads entry");
        if (!is_builtin(name))
          kScenario.fail("unknown workload \"" + name + "\"");
        sc.workload_names.push_back(name);
      }
    } else if (key == "random_workloads") {
      sc.random = parse_random_family(v);
    } else if (key == "etf") {
      sc.etf = as_number_array(v, key);
    } else if (key == "jitter") {
      sc.jitter = as_number_array(v, key);
    } else if (key == "loss") {
      sc.loss = as_number_array(v, key);
    } else if (key == "distributions") {
      for (const json::Value& item : kScenario.array(v, key))
        sc.distributions.push_back(parse_distribution(
            kScenario.string(item, "distributions entry")));
    } else if (key == "fault_plans") {
      for (const json::Value& item : kScenario.array(v, key)) {
        if (item.kind != json::Value::Kind::kObject)
          kScenario.fail("fault_plans entries must be objects");
        std::string rendered;
        render_json(item, rendered);
        sc.fault_plans.push_back(faults::parse_fault_plan(rendered));
      }
    } else {
      return false;
    }
    return true;
  });

  // Singleton defaults for the axes a minimal scenario leaves out.
  if (sc.workload_names.empty() && sc.random.count == 0)
    sc.workload_names.push_back("simple");
  if (sc.etf.empty()) sc.etf.push_back(1.0);
  if (sc.jitter.empty()) sc.jitter.push_back(0.1);
  if (sc.loss.empty()) sc.loss.push_back(0.0);
  if (sc.distributions.empty())
    sc.distributions.push_back(rts::ExecDistribution::kUniform);
  if (sc.fault_plans.empty()) sc.fault_plans.emplace_back();

  sc.validate();
  return sc;
}

Scenario load_scenario_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) EUCON_FAIL("cannot open scenario: " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return parse_scenario(buf.str());
}

}  // namespace eucon::scenario
