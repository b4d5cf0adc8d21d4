// The checked-in bench reports (BENCH_PERF.json, BENCH_SCALING.json,
// BENCH_STEERING.json) against the rules in bench/report_checks.h, the same
// functions each bench applies to the report it writes. Every rule is also
// shown to fire: each case breaks one field of an in-memory copy of a
// checked-in report and expects that rule's violation.
#include <gtest/gtest.h>

#include <algorithm>
#include <charconv>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/check.h"
#include "eucon/json_reader.h"
#include "report_checks.h"

namespace eucon::bench {
namespace {

using Kind = json::Value::Kind;
using Check = Violations (*)(const json::Value&);

const std::pair<const char*, Check> kReports[] = {
    {"BENCH_PERF.json", perf_report_violations},
    {"BENCH_SCALING.json", scaling_report_violations},
    {"BENCH_STEERING.json", steering_report_violations}};

std::string report_path(const char* file) {
  return std::string(EUCON_REPO_DIR) + "/" + file;
}

json::Value load(const char* file) {
  std::ifstream in(report_path(file), std::ios::binary);
  EUCON_REQUIRE(in.good(), std::string("cannot read ") + file);
  std::ostringstream text;
  text << in.rdbuf();
  return json::Schema(file, /*allow_empty_arrays=*/true).parse(text.str());
}

// A checked-in report obeys its bench's rules and comes from a full run.
Violations checked_in_violations(const json::Value& report, Check check) {
  Violations v = check(report);
  const json::Value* smoke = json::member(report, "smoke");
  if (smoke == nullptr || smoke->kind != Kind::kBool || smoke->boolean)
    v.push_back("checked-in report must come from a full run, not --smoke");
  return v;
}

bool mentions(const Violations& violations, std::string_view rule) {
  return std::any_of(violations.begin(), violations.end(),
                     [&](const std::string& v) {
                       return v.find(rule) != std::string::npos;
                     });
}

std::string joined(const Violations& violations) {
  std::string all;
  for (const std::string& v : violations) all += "\n  " + v;
  return all;
}

json::Value value(Kind kind) {
  json::Value v;
  v.kind = kind;
  return v;
}
json::Value num(double x) {
  json::Value v = value(Kind::kNumber);
  v.number = x;
  return v;
}
json::Value boolean(bool b) {
  json::Value v = value(Kind::kBool);
  v.boolean = b;
  return v;
}
json::Value str(const char* s) {
  json::Value v = value(Kind::kString);
  v.string = s;
  return v;
}

// Sets (or, with no value, erases) the field at a dotted path such as
// "batch.speedup" or "points.3", where a number indexes an array.
void set(json::Value& root, std::string_view path,
         std::optional<json::Value> v) {
  json::Value* parent = &root;
  while (true) {
    const std::size_t dot = path.find('.');
    const std::string_view key = path.substr(0, dot);
    std::size_t index = 0;
    const bool is_index =
        parent->kind == Kind::kArray &&
        std::from_chars(key.data(), key.data() + key.size(), index).ec ==
            std::errc{};
    json::Value* child = nullptr;
    if (is_index) {
      EUCON_REQUIRE(index < parent->items.size(), "index out of range");
      if (dot == std::string_view::npos && !v) {
        parent->items.erase(parent->items.begin() +
                            static_cast<std::ptrdiff_t>(index));
        return;
      }
      child = &parent->items[index];
    } else {
      auto& m = parent->members;
      const auto it = std::find_if(
          m.begin(), m.end(), [&](const auto& kv) { return kv.first == key; });
      EUCON_REQUIRE(it != m.end(), "report lacks " + std::string(key));
      if (dot == std::string_view::npos && !v) {
        m.erase(it);
        return;
      }
      child = &it->second;
    }
    if (dot == std::string_view::npos) {
      *child = std::move(*v);
      return;
    }
    parent = child;
    path.remove_prefix(dot + 1);
  }
}

struct Mutation {
  const char* rule;  // a substring of the violation the rule reports
  const char* path;
  std::optional<json::Value> value;  // nullopt: erase the field
};

// Each mutation, applied to a fresh copy of `file`, must make its rule fire.
void expect_every_rule_fires(const char* file, Check check,
                             const std::vector<Mutation>& mutations) {
  const json::Value pristine = load(file);
  ASSERT_TRUE(checked_in_violations(pristine, check).empty()) << file;
  for (const Mutation& m : mutations) {
    json::Value copy = pristine;
    set(copy, m.path, m.value);
    const Violations v = checked_in_violations(copy, check);
    EXPECT_TRUE(mentions(v, m.rule)) << file << ": setting " << m.path
                                     << " did not fire \"" << m.rule
                                     << "\"; got:" << joined(v);
  }
}

const char* const kSmokeRule = "must come from a full run";

TEST(BenchReportsTest, CheckedInReportsPassTheirBenchesChecks) {
  for (const auto& [file, check] : kReports) {
    const Violations v = checked_in_violations(load(file), check);
    EXPECT_TRUE(v.empty()) << file << ":" << joined(v);
    EXPECT_TRUE(check_report_file(report_path(file), check).empty()) << file;
  }
}

TEST(BenchReportsTest, EveryPerfRuleFires) {
  expect_every_rule_fires(
      "BENCH_PERF.json", perf_report_violations,
      {{kSmokeRule, "smoke", boolean(true)},
       {"schema_version missing or < 2", "schema_version", num(1)},
       {"generated_by missing", "generated_by", std::nullopt},
       {"smoke flag missing", "smoke", std::nullopt},
       {"hardware_concurrency missing or < 1", "hardware_concurrency", num(0)},
       {"at least the five core sections", "benchmarks",
        value(Kind::kArray)},
       {"benchmarks[0].name missing", "benchmarks.0.name", std::nullopt},
       {"benchmarks[1].p90_us missing or not a number", "benchmarks.1.p90_us",
        str("x")},
       {"benchmarks[2].p99_us below p50_us", "benchmarks.2.p99_us", num(0)},
       {"batch.runs missing or non-positive", "batch.runs", num(0)},
       {"batch.parallel_runs_per_sec missing or non-positive",
        "batch.parallel_runs_per_sec", std::nullopt},
       {"batch.speedup_claimed missing", "batch.speedup_claimed",
        std::nullopt},
       {"multi-core run must claim a measured speedup",
        "batch.speedup_claimed", boolean(false)},
       {"batch.speedup missing or non-positive on a multi-core run",
        "batch.speedup", value(Kind::kNull)},
       // The checked-in report ran on 4 cores.
       {"below the 1.1x floor", "batch.speedup", num(1.05)},
       {"1-core run must not claim a speedup", "hardware_concurrency",
        num(1)},
       {"batch.speedup must be null on a 1-core run", "hardware_concurrency",
        num(1)},
       {"batch_scaling must hold at least one point", "batch_scaling",
        value(Kind::kArray)},
       {"batch_scaling[0].workers missing or < 1", "batch_scaling.0.workers",
        num(0)},
       {"batch_scaling[1].runs_per_sec missing or non-positive",
        "batch_scaling.1.runs_per_sec", num(-1)},
       {"obs.registry_overhead_pct missing or not a number",
        "obs.registry_overhead_pct", std::nullopt}});
}

TEST(BenchReportsTest, PerfFloorAppliesToFullRunsOnly) {
  json::Value report = load("BENCH_PERF.json");
  set(report, "batch.speedup", num(1.05));
  set(report, "smoke", boolean(true));
  // A smoke batch is too small to show scaling, so it may miss 1.1x...
  EXPECT_TRUE(perf_report_violations(report).empty());
  // ...but a smoke report is never a publishable one.
  EXPECT_TRUE(mentions(checked_in_violations(report, perf_report_violations),
                       kSmokeRule));
}

TEST(BenchReportsTest, OneCorePerfReportPublishesNullSpeedup) {
  json::Value report = load("BENCH_PERF.json");
  set(report, "hardware_concurrency", num(1));
  set(report, "batch.speedup_claimed", boolean(false));
  set(report, "batch.speedup", value(Kind::kNull));
  while (json::member(report, "batch_scaling")->items.size() > 1)
    set(report, "batch_scaling.1", std::nullopt);
  const Violations v = perf_report_violations(report);
  EXPECT_TRUE(v.empty()) << joined(v);

  // A number where null belongs is a claim the run could not measure.
  set(report, "batch.speedup", num(1.0));
  EXPECT_TRUE(mentions(perf_report_violations(report), "must be null"));
}

TEST(BenchReportsTest, EveryScalingRuleFires) {
  expect_every_rule_fires(
      "BENCH_SCALING.json", scaling_report_violations,
      {{kSmokeRule, "smoke", boolean(true)},
       {"schema_version missing or < 1", "schema_version", num(0)},
       {"generated_by missing", "generated_by", std::nullopt},
       {"smoke flag missing", "smoke", std::nullopt},
       {"shard_size missing or < 1", "shard_size", num(0)},
       // The n = 4000 point is missing.
       {"points must hold every processor count", "points.3", std::nullopt},
       {"points[1].processors must be 128", "points.1.processors", num(64)},
       {"points[0].nnz missing or not a number", "points.0.nnz",
        std::nullopt},
       {"points[2].period_p50_us must be positive", "points.2.period_p50_us",
        num(0)},
       {"points[3].steady_err_max must show a settled loop",
        "points.3.steady_err_max", num(0.05)},
       {"points[4].workspace_vars must equal max_shard_vars",
        "points.4.workspace_vars", num(128)},
       {"parity must cover every n <= 128 scenario", "parity",
        value(Kind::kArray)},
       {"parity[0] must be an n <= 128 scenario", "parity.0.processors",
        num(256)},
       {"parity[1].max_rate_gap_rel must be within tolerance",
        "parity.1.max_rate_gap_rel", num(0.05)},
       {"parity[2].util_err_hier must be within tolerance",
        "parity.2.util_err_hier", num(0.02)},
       {"blowup_10k_vs_1k missing or >= 100", "blowup_10k_vs_1k", num(120)},
       {"the n = 10000 period costs 100x", "points.4.period_p50_us",
        num(1e9)}});
}

TEST(BenchReportsTest, EverySteeringRuleFires) {
  expect_every_rule_fires(
      "BENCH_STEERING.json", steering_report_violations,
      {{kSmokeRule, "smoke", boolean(true)},
       {"schema_version missing or < 1", "schema_version", num(0)},
       {"generated_by missing or not bench_steering", "generated_by",
        str("bench_perf")},
       {"smoke flag missing", "smoke", std::nullopt},
       {"scenario missing", "scenario", std::nullopt},
       {"delta missing or outside (0, 1)", "delta", num(1.5)},
       {"bound missing", "bound", std::nullopt},
       {"savings_floor missing", "savings_floor", std::nullopt},
       {"winners_match missing", "winners_match", std::nullopt},
       {"steering.winner missing", "steering.winner", std::nullopt},
       {"exhaustive.decided missing", "exhaustive.decided", std::nullopt},
       {"steering.replications missing or < 1", "steering.replications",
        num(0)},
       {"exhaustive.wall_seconds missing or negative",
        "exhaustive.wall_seconds", num(-1)},
       {"steering.arms must hold at least two controllers", "steering.arms",
        value(Kind::kArray)},
       {"exhaustive.arms[0].controller missing",
        "exhaustive.arms.0.controller", std::nullopt},
       {"steering.arms[1].mean missing or outside [0, 1]",
        "steering.arms.1.mean", num(1.5)},
       {"steering.arms[2].pulls missing or < 1", "steering.arms.2.pulls",
        num(0)},
       {"exhaustive.arms[1].eliminated_round missing",
        "exhaustive.arms.1.eliminated_round", std::nullopt},
       {"not the replication ratio", "steering.replication_savings", num(3)},
       {"winners_match disagrees with the winner strings",
        "exhaustive.winner", str("PID")},
       {"steered winner does not match the exhaustive grid", "winners_match",
        boolean(false)},
       {"steering did not decide", "steering.decided", boolean(false)},
       {"below savings_floor", "savings_floor", num(3)}});
}

TEST(BenchReportsTest, UnknownKeysAreIgnored) {
  for (const auto& [file, check] : kReports) {
    json::Value report = load(file);
    report.members.emplace_back("not_in_the_schema",
                                str("added by a newer writer"));
    EXPECT_TRUE(check(report).empty()) << file;
  }
}

TEST(BenchReportsTest, UnreadableOrMalformedFileIsOneViolation) {
  const std::filesystem::path dir = ::testing::TempDir();
  EXPECT_EQ(check_report_file((dir / "no_such_report.json").string(),
                              perf_report_violations)
                .size(),
            1u);
  const std::string malformed = (dir / "malformed_report.json").string();
  std::ofstream(malformed) << "{\"schema_version\": 2,";
  EXPECT_EQ(check_report_file(malformed, perf_report_violations).size(), 1u);
  std::filesystem::remove(malformed);
}

}  // namespace
}  // namespace eucon::bench
