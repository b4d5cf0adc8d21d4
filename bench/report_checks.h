// The rules a bench report must satisfy, one function per report. Each
// returns the report's violations; an empty list means the report is
// valid. A bench applies its function to the file it has just written, and
// tests/bench_reports_test.cpp applies the same function to the checked-in
// BENCH_*.json files, so a published report and a fresh one obey one set of
// rules.
//
// Reports are read through the library's JSON reader (eucon/json_reader.h).
// Keys a function does not know are ignored, so a report may carry fields
// that a newer or older writer added.
#pragma once

#include <cmath>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "eucon/json_reader.h"

namespace eucon::bench {

using Violations = std::vector<std::string>;

// The processor counts bench_scaling measures, in report order.
inline constexpr int kScalingProcessorCounts[] = {16, 128, 1000, 4000, 10000};

// Collects one report's violations, with lookups that tolerate absent keys
// and wrong types: a rule that reads a missing value fails, never throws.
class ReportRules {
 public:
  using Kind = json::Value::Kind;

  void need(bool ok, std::string what) {
    if (!ok) violations_.push_back(std::move(what));
  }
  Violations take() { return std::move(violations_); }

  static const json::Value* find(const json::Value& object,
                                 std::string_view key, Kind kind) {
    const json::Value* v = json::member(object, key);
    return v != nullptr && v->kind == kind ? v : nullptr;
  }
  static bool has(const json::Value& object, std::string_view key,
                  Kind kind) {
    return find(object, key, kind) != nullptr;
  }
  // NaN when the key is absent or not a number, so every comparison with
  // it is false and the rule that reads it fails.
  static double number(const json::Value& object, std::string_view key) {
    const json::Value* v = find(object, key, Kind::kNumber);
    return v != nullptr ? v->number : std::nan("");
  }
  static bool is_true(const json::Value& object, std::string_view key) {
    const json::Value* v = find(object, key, Kind::kBool);
    return v != nullptr && v->boolean;
  }
  static bool is_false(const json::Value& object, std::string_view key) {
    const json::Value* v = find(object, key, Kind::kBool);
    return v != nullptr && !v->boolean;
  }
  static const std::string* string(const json::Value& object,
                                   std::string_view key) {
    const json::Value* v = find(object, key, Kind::kString);
    return v != nullptr ? &v->string : nullptr;
  }
  // The value at `key`, or null when it is absent, so the checks read
  // through a missing object or array and report each field it lacks.
  static const json::Value& child(const json::Value& object,
                                  std::string_view key) {
    static const json::Value kAbsent;
    const json::Value* v = json::member(object, key);
    return v != nullptr ? *v : kAbsent;
  }

 private:
  Violations violations_;
};

// BENCH_PERF.json (bench_perf).
inline Violations perf_report_violations(const json::Value& report) {
  using Kind = json::Value::Kind;
  ReportRules c;
  c.need(c.number(report, "schema_version") >= 2.0,
         "schema_version missing or < 2");
  c.need(c.has(report, "generated_by", Kind::kString), "generated_by missing");
  c.need(c.has(report, "smoke", Kind::kBool), "smoke flag missing");
  const double hw = c.number(report, "hardware_concurrency");
  c.need(hw >= 1.0, "hardware_concurrency missing or < 1");

  const std::vector<json::Value>& benches = c.child(report, "benchmarks").items;
  c.need(benches.size() >= 5,
         "benchmarks must hold at least the five core sections");
  for (std::size_t i = 0; i < benches.size(); ++i) {
    const std::string p = "benchmarks[" + std::to_string(i) + "]";
    c.need(c.has(benches[i], "name", Kind::kString), p + ".name missing");
    for (const char* key : {"warmup_iterations", "iterations", "mean_us",
                            "p50_us", "p90_us", "p99_us", "min_us", "max_us"})
      c.need(c.has(benches[i], key, Kind::kNumber),
             p + "." + key + " missing or not a number");
    c.need(c.number(benches[i], "p99_us") >= c.number(benches[i], "p50_us"),
           p + ".p99_us below p50_us");
  }

  const json::Value& batch = c.child(report, "batch");
  for (const char* key : {"runs", "workers", "serial_runs_per_sec",
                          "parallel_runs_per_sec"})
    c.need(c.number(batch, key) > 0.0,
           std::string("batch.") + key + " missing or non-positive");
  // The multi-core honesty rules: a 1-core pool run measures queueing, not
  // scaling, so it must publish the speedup as null; a multi-core run must
  // publish a measured one, and a full run must clear 1.1x, below which the
  // pool does not pay for itself.
  c.need(c.has(batch, "speedup_claimed", Kind::kBool),
         "batch.speedup_claimed missing");
  if (hw > 1.5) {
    c.need(c.is_true(batch, "speedup_claimed"),
           "multi-core run must claim a measured speedup");
    c.need(c.number(batch, "speedup") > 0.0,
           "batch.speedup missing or non-positive on a multi-core run");
    if (c.is_false(report, "smoke"))
      c.need(c.number(batch, "speedup") >= 1.1,
             "batch.speedup below the 1.1x floor on a multi-core full run");
  } else {
    c.need(c.is_false(batch, "speedup_claimed"),
           "1-core run must not claim a speedup");
    c.need(c.has(batch, "speedup", Kind::kNull),
           "batch.speedup must be null on a 1-core run");
  }

  const std::vector<json::Value>& scaling =
      c.child(report, "batch_scaling").items;
  c.need(!scaling.empty(), "batch_scaling must hold at least one point");
  for (std::size_t i = 0; i < scaling.size(); ++i) {
    const std::string p = "batch_scaling[" + std::to_string(i) + "]";
    c.need(c.number(scaling[i], "workers") >= 1.0, p + ".workers missing or < 1");
    c.need(c.number(scaling[i], "runs_per_sec") > 0.0,
           p + ".runs_per_sec missing or non-positive");
  }

  const json::Value& obs = c.child(report, "obs");
  for (const char* key :
       {"mpc_update_p50_us", "mpc_update_observed_p50_us",
        "registry_overhead_pct", "timer_mpc_update_count",
        "timer_mpc_update_mean_us", "timer_qp_solve_count",
        "timer_qp_solve_mean_us"})
    c.need(c.has(obs, key, Kind::kNumber),
           std::string("obs.") + key + " missing or not a number");
  return c.take();
}

// BENCH_SCALING.json (bench_scaling).
inline Violations scaling_report_violations(const json::Value& report) {
  using Kind = json::Value::Kind;
  ReportRules c;
  c.need(c.number(report, "schema_version") >= 1.0,
         "schema_version missing or < 1");
  c.need(c.has(report, "generated_by", Kind::kString), "generated_by missing");
  c.need(c.has(report, "smoke", Kind::kBool), "smoke flag missing");
  c.need(c.number(report, "shard_size") >= 1.0, "shard_size missing or < 1");

  const std::vector<json::Value>& points = c.child(report, "points").items;
  constexpr std::size_t kCounts = std::size(kScalingProcessorCounts);
  c.need(points.size() == kCounts,
         "points must hold every processor count (16..10k)");
  for (std::size_t i = 0; i < points.size(); ++i) {
    const json::Value& pt = points[i];
    const std::string p = "points[" + std::to_string(i) + "]";
    if (i < kCounts)
      c.need(c.number(pt, "processors") == kScalingProcessorCounts[i],
             p + ".processors must be " +
                 std::to_string(kScalingProcessorCounts[i]));
    for (const char* key :
         {"tasks", "nnz", "shards", "max_shard_vars", "workspace_vars",
          "workspace_cons", "construct_ms", "periods_timed", "period_p50_us",
          "period_mean_us", "steady_err_max"})
      c.need(c.has(pt, key, Kind::kNumber),
             p + "." + key + " missing or not a number");
    c.need(c.number(pt, "period_p50_us") > 0.0,
           p + ".period_p50_us must be positive");
    c.need(c.number(pt, "steady_err_max") < 0.02,
           p + ".steady_err_max must show a settled loop (< 0.02)");
    c.need(c.number(pt, "workspace_vars") == c.number(pt, "max_shard_vars"),
           p + ".workspace_vars must equal max_shard_vars (QP workspace "
               "sized per shard)");
  }

  const std::vector<json::Value>& parity = c.child(report, "parity").items;
  c.need(parity.size() >= 2, "parity must cover every n <= 128 scenario");
  for (std::size_t i = 0; i < parity.size(); ++i) {
    const std::string p = "parity[" + std::to_string(i) + "]";
    c.need(c.number(parity[i], "processors") <= 128.0,
           p + " must be an n <= 128 scenario");
    c.need(c.number(parity[i], "max_rate_gap_rel") < 0.02,
           p + ".max_rate_gap_rel must be within tolerance (< 0.02)");
    c.need(c.number(parity[i], "util_err_hier") < 0.01,
           p + ".util_err_hier must be within tolerance (< 0.01)");
  }

  // The superlinear-blowup guard: shards are constant-size, so 10x the
  // processors may not cost 100x the period, as published and as the points
  // themselves say.
  const double blowup = c.number(report, "blowup_10k_vs_1k");
  c.need(blowup > 0.0 && blowup < 100.0,
         "blowup_10k_vs_1k missing or >= 100 (superlinear blowup)");
  if (points.size() == kCounts)
    c.need(c.number(points[4], "period_p50_us") /
                   c.number(points[2], "period_p50_us") <
               100.0,
           "points: the n = 10000 period costs 100x the n = 1000 period or "
           "more (superlinear blowup)");
  return c.take();
}

// BENCH_STEERING.json (bench_steering).
inline Violations steering_report_violations(const json::Value& report) {
  using Kind = json::Value::Kind;
  ReportRules c;
  c.need(c.number(report, "schema_version") >= 1.0,
         "schema_version missing or < 1");
  const std::string* generated_by = c.string(report, "generated_by");
  c.need(generated_by != nullptr && *generated_by == "bench_steering",
         "generated_by missing or not bench_steering");
  c.need(c.has(report, "smoke", Kind::kBool), "smoke flag missing");
  c.need(c.has(report, "scenario", Kind::kString), "scenario missing");
  const double delta = c.number(report, "delta");
  c.need(delta > 0.0 && delta < 1.0, "delta missing or outside (0, 1)");
  c.need(c.has(report, "bound", Kind::kString), "bound missing");
  c.need(c.has(report, "savings_floor", Kind::kNumber), "savings_floor missing");
  c.need(c.has(report, "winners_match", Kind::kBool), "winners_match missing");

  for (const char* side : {"steering", "exhaustive"}) {
    const json::Value& s = c.child(report, side);
    const std::string p = side;
    c.need(c.has(s, "winner", Kind::kString), p + ".winner missing");
    c.need(c.has(s, "decided", Kind::kBool), p + ".decided missing");
    c.need(c.number(s, "replications") >= 1.0,
           p + ".replications missing or < 1");
    c.need(c.number(s, "wall_seconds") >= 0.0,
           p + ".wall_seconds missing or negative");
    const std::vector<json::Value>& arms = c.child(s, "arms").items;
    c.need(arms.size() >= 2, p + ".arms must hold at least two controllers");
    for (std::size_t i = 0; i < arms.size(); ++i) {
      const std::string a = p + ".arms[" + std::to_string(i) + "]";
      c.need(c.has(arms[i], "controller", Kind::kString),
             a + ".controller missing");
      const double mean = c.number(arms[i], "mean");
      c.need(mean >= 0.0 && mean <= 1.0, a + ".mean missing or outside [0, 1]");
      c.need(c.number(arms[i], "pulls") >= 1.0, a + ".pulls missing or < 1");
      c.need(c.has(arms[i], "eliminated_round", Kind::kNumber),
             a + ".eliminated_round missing");
    }
  }

  // Internal consistency: the published numbers must agree with each other.
  const json::Value& steering = c.child(report, "steering");
  const json::Value& exhaustive = c.child(report, "exhaustive");
  const double savings = c.number(steering, "replication_savings");
  // %.9g serialization rounds the ratio; compare at matching precision.
  const double ratio = c.number(exhaustive, "replications") /
                       c.number(steering, "replications");
  c.need(std::fabs(ratio - savings) < 1e-6 * ratio,
         "steering.replication_savings missing or not the replication ratio");
  const std::string* steered = c.string(steering, "winner");
  const std::string* grid = c.string(exhaustive, "winner");
  if (steered != nullptr && grid != nullptr &&
      c.has(report, "winners_match", Kind::kBool))
    c.need(c.is_true(report, "winners_match") == (*steered == *grid),
           "winners_match disagrees with the winner strings");

  // The claims the steering layer is published on.
  c.need(c.is_true(report, "winners_match"),
         "steered winner does not match the exhaustive grid");
  c.need(c.is_true(steering, "decided"),
         "steering did not decide within the grid budget");
  c.need(savings >= c.number(report, "savings_floor"),
         "steering.replication_savings below savings_floor");
  return c.take();
}

// Reads and checks the report at `path` with `check`, printing each
// violation to stderr. An unreadable or malformed file is one violation.
inline Violations check_report_file(
    const std::string& path, Violations (*check)(const json::Value&)) {
  Violations violations;
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    violations.push_back("cannot read the report");
  } else {
    std::ostringstream text;
    text << in.rdbuf();
    try {
      violations =
          check(json::Schema("bench report", /*allow_empty_arrays=*/true)
                    .parse(text.str()));
    } catch (const std::invalid_argument& e) {
      violations.push_back(e.what());
    }
  }
  for (const std::string& v : violations)
    std::fprintf(stderr, "schema: %s: %s\n", path.c_str(), v.c_str());
  return violations;
}

}  // namespace eucon::bench
