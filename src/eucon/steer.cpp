#include "eucon/steer.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/csv.h"
#include "eucon/metrics.h"

namespace eucon::steer {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Per-(arm, t) failure budget: delta_eff / (K t (t+1)). Sum over t of
// 1/(t(t+1)) telescopes to 1, so a union bound over arms and times spends
// exactly delta_eff in total — the radii are anytime valid.
double per_time_delta(double delta_eff, std::size_t num_arms, std::size_t t) {
  return delta_eff / (static_cast<double>(num_arms) * static_cast<double>(t) *
                      static_cast<double>(t + 1));
}

// Hoeffding radius for t samples in [0, 1] at confidence delta_t.
double hoeffding_radius_at(std::size_t t, double delta_t) {
  if (t == 0) return kInf;
  const double td = static_cast<double>(t);
  return std::sqrt(std::log(2.0 / delta_t) / (2.0 * td));
}

// Maurer–Pontil empirical-Bernstein radius: needs the sample variance, so
// it is undefined (infinite) below two samples.
double bernstein_radius_at(std::size_t t, double delta_t,
                           double sample_variance) {
  if (t < 2) return kInf;
  const double td = static_cast<double>(t);
  const double log_term = std::log(3.0 / delta_t);
  return std::sqrt(2.0 * sample_variance * log_term / td) +
         3.0 * log_term / td;
}

double bound_radius(const RunningStats& stats, std::size_t num_arms,
                    const BaiOptions& options) {
  const std::size_t t = stats.count();
  if (t == 0) return kInf;
  switch (options.bound) {
    case BoundKind::kHoeffding:
      return hoeffding_radius_at(
          t, per_time_delta(options.delta, num_arms, t));
    case BoundKind::kEmpiricalBernstein:
      return bernstein_radius_at(t,
                                 per_time_delta(options.delta, num_arms, t),
                                 stats.sample_variance());
    case BoundKind::kTightest: {
      // Half the budget to each bound; both then hold simultaneously, so
      // the smaller radius is valid at the full delta.
      const double half = options.delta / 2.0;
      return std::min(
          hoeffding_radius_at(t, per_time_delta(half, num_arms, t)),
          bernstein_radius_at(t, per_time_delta(half, num_arms, t),
                              stats.sample_variance()));
    }
  }
  EUCON_FAIL("unreachable bound kind");
}

// JSON string escaping for decision-log records (names come from scenario
// files, so quotes/backslashes/control bytes must survive).
std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

// Deterministic JSON number rendering; infinities (a pre-variance Bernstein
// radius) have no JSON spelling and render as null.
std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  return CsvWriter::format_double(v);
}

}  // namespace

const char* bound_kind_name(BoundKind bound) {
  switch (bound) {
    case BoundKind::kHoeffding: return "hoeffding";
    case BoundKind::kEmpiricalBernstein: return "bernstein";
    case BoundKind::kTightest: return "tightest";
  }
  EUCON_FAIL("unreachable bound kind");
}

BoundKind parse_bound_kind(const std::string& name) {
  if (name == "hoeffding") return BoundKind::kHoeffding;
  if (name == "bernstein") return BoundKind::kEmpiricalBernstein;
  if (name == "tightest") return BoundKind::kTightest;
  EUCON_FAIL_INVALID("unknown bound kind '" + name +
                     "' (expected hoeffding, bernstein or tightest)");
}

// ---------------------------------------------------------------------------
// SuccessiveElimination
// ---------------------------------------------------------------------------

SuccessiveElimination::SuccessiveElimination(std::size_t num_arms,
                                             const BaiOptions& options)
    : options_(options), arms_(num_arms), num_active_(num_arms) {
  EUCON_REQUIRE(num_arms >= 1, "need at least one arm");
  EUCON_REQUIRE(options.delta > 0.0 && options.delta < 1.0,
                "delta must lie in (0, 1)");
}

void SuccessiveElimination::add_sample(std::size_t arm, double value) {
  EUCON_REQUIRE(arm < arms_.size(), "arm index out of range");
  EUCON_REQUIRE(arms_[arm].eliminated_round < 0,
                "cannot sample an eliminated arm");
  EUCON_REQUIRE(value >= 0.0 && value <= 1.0,
                "rewards must lie in [0, 1] (the bounds assume it)");
  arms_[arm].stats.add(value);
}

void SuccessiveElimination::end_round() {
  // Equal pull counts across active arms keep comparisons paired (same
  // common-random-number schedule) and the union bound balanced.
  std::size_t pulls_seen = 0;
  bool first = true;
  for (const Arm& arm : arms_) {
    if (arm.eliminated_round >= 0) continue;
    if (first) {
      pulls_seen = arm.stats.count();
      first = false;
    } else {
      EUCON_REQUIRE(arm.stats.count() == pulls_seen,
                    "active arms must have equal pull counts at a barrier");
    }
  }
  EUCON_REQUIRE(pulls_seen >= 1, "end_round needs at least one pull per arm");

  ++rounds_;
  for (Arm& arm : arms_) {
    if (arm.eliminated_round >= 0) continue;
    arm.radius = radius_for(arm);
    arm.has_radius = true;
  }
  if (num_active_ <= 1) return;

  const std::size_t leader = best();
  const double leader_lower =
      arms_[leader].stats.mean() - arms_[leader].radius;
  for (std::size_t i = 0; i < arms_.size(); ++i) {
    if (i == leader || arms_[i].eliminated_round >= 0) continue;
    if (arms_[i].stats.mean() + arms_[i].radius < leader_lower) {
      arms_[i].eliminated_round = narrow<int>(rounds_);
      --num_active_;
    }
  }
}

bool SuccessiveElimination::active(std::size_t arm) const {
  EUCON_REQUIRE(arm < arms_.size(), "arm index out of range");
  return arms_[arm].eliminated_round < 0;
}

std::size_t SuccessiveElimination::best() const {
  std::size_t best_arm = arms_.size();
  double best_mean = -kInf;
  for (std::size_t i = 0; i < arms_.size(); ++i) {
    if (arms_[i].eliminated_round >= 0) continue;
    const double m = arms_[i].stats.mean();
    if (best_arm == arms_.size() || m > best_mean) {
      best_arm = i;
      best_mean = m;
    }
  }
  EUCON_ASSERT(best_arm < arms_.size(), "no active arm");
  return best_arm;
}

double SuccessiveElimination::mean(std::size_t arm) const {
  EUCON_REQUIRE(arm < arms_.size(), "arm index out of range");
  return arms_[arm].stats.mean();
}

double SuccessiveElimination::radius(std::size_t arm) const {
  EUCON_REQUIRE(arm < arms_.size(), "arm index out of range");
  if (!arms_[arm].has_radius) return kInf;
  return arms_[arm].radius;
}

std::size_t SuccessiveElimination::pulls(std::size_t arm) const {
  EUCON_REQUIRE(arm < arms_.size(), "arm index out of range");
  return arms_[arm].stats.count();
}

int SuccessiveElimination::eliminated_round(std::size_t arm) const {
  EUCON_REQUIRE(arm < arms_.size(), "arm index out of range");
  return arms_[arm].eliminated_round;
}

double SuccessiveElimination::hoeffding_radius(std::size_t arm) const {
  EUCON_REQUIRE(arm < arms_.size(), "arm index out of range");
  const std::size_t t = arms_[arm].stats.count();
  if (t == 0) return kInf;
  const double delta_eff = options_.bound == BoundKind::kTightest
                               ? options_.delta / 2.0
                               : options_.delta;
  return hoeffding_radius_at(t, per_time_delta(delta_eff, arms_.size(), t));
}

double SuccessiveElimination::radius_for(const Arm& arm) const {
  return bound_radius(arm.stats, arms_.size(), options_);
}

// ---------------------------------------------------------------------------
// Steering over run_batch
// ---------------------------------------------------------------------------

double run_score(const ExperimentResult& result) {
  if (result.trace.empty() || result.set_points.size() == 0) return 0.0;
  // Steady-state window: skip the transient, as every summary does.
  const std::size_t from = metrics::steady_state_from(result.trace.size());
  double deviation = 0.0;
  for (std::size_t p = 0; p < result.set_points.size(); ++p) {
    const RunningStats s = metrics::utilization_stats(result, p, from);
    deviation += std::abs(s.mean() - result.set_points[p]);
  }
  deviation /= static_cast<double>(result.set_points.size());
  const double tracking = std::clamp(1.0 - deviation / 0.2, 0.0, 1.0);
  const double deadline =
      std::clamp(1.0 - result.deadlines.e2e_miss_ratio(), 0.0, 1.0);
  return 0.5 * tracking + 0.5 * deadline;
}

namespace {

void log_line(std::ostream* log, const std::string& line) {
  if (log != nullptr) *log << line << '\n';
}

std::string arm_record(const std::string& controller,
                       const SuccessiveElimination& se, std::size_t arm) {
  std::ostringstream os;
  os << "{\"controller\":\"" << json_escape(controller)
     << "\",\"pulls\":" << se.pulls(arm)
     << ",\"mean\":" << json_number(se.mean(arm))
     << ",\"radius\":" << json_number(se.radius(arm))
     << ",\"active\":" << (se.active(arm) ? "true" : "false") << "}";
  return os.str();
}

std::string header_record(const scenario::Scenario& sc,
                          const SteeringOptions& options, std::size_t budget,
                          std::size_t max_rounds) {
  std::ostringstream os;
  os << "{\"event\":\"steering\",\"scenario\":\"" << json_escape(sc.name)
     << "\",\"bound\":\"" << bound_kind_name(options.bai.bound)
     << "\",\"delta\":" << json_number(options.bai.delta)
     << ",\"controllers\":[";
  for (std::size_t i = 0; i < sc.controllers.size(); ++i) {
    if (i > 0) os << ',';
    os << '"' << controller_kind_name(sc.controllers[i]) << '"';
  }
  os << "],\"instances\":" << sc.num_instances()
     << ",\"replicas\":" << sc.replicas << ",\"budget_per_arm\":" << budget
     << ",\"reps_per_round\":" << options.reps_per_round
     << ",\"max_rounds\":" << max_rounds << ",\"seed\":" << sc.seed << "}";
  return os.str();
}

}  // namespace

SteeringReport run_steering(const scenario::Scenario& sc,
                            const SteeringOptions& options) {
  sc.validate();
  const std::size_t num_arms = sc.controllers.size();
  EUCON_REQUIRE(num_arms >= 2,
                "steering needs at least two controllers to compare");
  EUCON_REQUIRE(options.reps_per_round >= 1, "reps_per_round must be >= 1");
  EUCON_REQUIRE(options.max_rounds >= 0, "max_rounds must be >= 0");

  const std::size_t instances = sc.num_instances();
  const std::size_t budget =
      instances * static_cast<std::size_t>(sc.replicas);
  const std::size_t reps =
      static_cast<std::size_t>(options.reps_per_round);
  // Default round budget: the fixed grid's per-arm spend. Steering may stop
  // earlier (decided) but never pulls one arm past what the exhaustive grid
  // would have given it.
  const std::size_t max_rounds =
      options.max_rounds > 0 ? static_cast<std::size_t>(options.max_rounds)
                             : (budget + reps - 1) / reps;

  log_line(options.decision_log,
           header_record(sc, options, budget, max_rounds));

  SuccessiveElimination se(num_arms, options.bai);
  std::size_t total_replications = 0;
  std::size_t pulls_done = 0;  // per-arm; equal across active arms
  for (std::size_t round = 1; round <= max_rounds && !se.decided(); ++round) {
    std::size_t reps_this = reps;
    if (options.max_rounds == 0)
      reps_this = std::min(reps, budget - pulls_done);
    if (reps_this == 0) break;

    // One run_batch call per round is the determinism barrier: results come
    // back in spec order and bit-identical serial vs pooled, so everything
    // decided below is a pure function of the scenario.
    std::vector<ExperimentSpec> specs;
    std::vector<std::size_t> spec_arm;
    specs.reserve(se.num_active() * reps_this);
    spec_arm.reserve(se.num_active() * reps_this);
    for (std::size_t arm = 0; arm < num_arms; ++arm) {
      if (!se.active(arm)) continue;
      for (std::size_t j = 0; j < reps_this; ++j) {
        const std::size_t t = pulls_done + j + 1;  // 1-based pull index
        specs.push_back(scenario::pull_spec(sc, sc.controllers[arm], t));
        spec_arm.push_back(arm);
      }
    }

    BatchOptions batch;
    batch.num_workers = options.num_workers;
    batch.serial = options.serial;
    batch.metrics = options.metrics;
    const std::vector<ExperimentResult> results = run_batch(specs, batch);

    for (std::size_t i = 0; i < results.size(); ++i)
      se.add_sample(spec_arm[i], run_score(results[i]));
    total_replications += results.size();
    pulls_done += reps_this;
    se.end_round();

    if (options.decision_log != nullptr) {
      std::ostringstream os;
      os << "{\"event\":\"round\",\"round\":" << round
         << ",\"pulls_per_arm\":" << pulls_done << ",\"arms\":[";
      bool first = true;
      for (std::size_t arm = 0; arm < num_arms; ++arm) {
        // Arms pulled this round: active now, or eliminated at this barrier.
        if (!se.active(arm) &&
            se.eliminated_round(arm) != narrow<int>(se.rounds()))
          continue;
        if (!first) os << ',';
        first = false;
        os << arm_record(controller_kind_name(sc.controllers[arm]), se, arm);
      }
      os << "]}";
      log_line(options.decision_log, os.str());

      const std::size_t leader = se.best();
      for (std::size_t arm = 0; arm < num_arms; ++arm) {
        if (se.eliminated_round(arm) != narrow<int>(se.rounds())) continue;
        std::ostringstream es;
        es << "{\"event\":\"eliminate\",\"round\":" << round
           << ",\"controller\":\""
           << controller_kind_name(sc.controllers[arm])
           << "\",\"mean\":" << json_number(se.mean(arm))
           << ",\"radius\":" << json_number(se.radius(arm)) << ",\"best\":\""
           << controller_kind_name(sc.controllers[leader])
           << "\",\"best_mean\":" << json_number(se.mean(leader))
           << ",\"best_radius\":" << json_number(se.radius(leader)) << "}";
        log_line(options.decision_log, es.str());
      }
    }
  }

  SteeringReport report;
  report.scenario = sc.name;
  report.decided = se.decided();
  report.rounds = se.rounds();
  report.total_replications = total_replications;
  report.exhaustive_replications = num_arms * budget;
  report.replication_savings =
      total_replications == 0
          ? 0.0
          : static_cast<double>(report.exhaustive_replications) /
                static_cast<double>(total_replications);
  const std::size_t winner = se.best();
  report.winner = controller_kind_name(sc.controllers[winner]);
  report.arms.reserve(num_arms);
  for (std::size_t arm = 0; arm < num_arms; ++arm) {
    ArmOutcome outcome;
    outcome.controller = controller_kind_name(sc.controllers[arm]);
    outcome.mean = se.mean(arm);
    outcome.radius = se.radius(arm);
    outcome.pulls = se.pulls(arm);
    outcome.eliminated_round = se.eliminated_round(arm);
    report.arms.push_back(std::move(outcome));
  }

  if (options.metrics != nullptr) {
    options.metrics->add("steer.rounds", report.rounds);
    options.metrics->add("steer.replications", report.total_replications);
    options.metrics->add("steer.eliminations", num_arms - se.num_active());
    options.metrics->add("steer.decided", report.decided ? 1 : 0);
  }

  if (options.decision_log != nullptr) {
    std::ostringstream os;
    os << "{\"event\":\"decision\",\"winner\":\"" << report.winner
       << "\",\"decided\":" << (report.decided ? "true" : "false")
       << ",\"rounds\":" << report.rounds
       << ",\"replications\":" << report.total_replications
       << ",\"exhaustive\":" << report.exhaustive_replications
       << ",\"savings\":" << json_number(report.replication_savings) << "}";
    log_line(options.decision_log, os.str());
  }
  return report;
}

SteeringReport run_exhaustive(const scenario::Scenario& sc,
                              const SteeringOptions& options) {
  sc.validate();
  const std::size_t num_arms = sc.controllers.size();
  const std::size_t budget =
      sc.num_instances() * static_cast<std::size_t>(sc.replicas);

  const std::vector<ExperimentSpec> specs = scenario::expand(sc);
  BatchOptions batch;
  batch.num_workers = options.num_workers;
  batch.serial = options.serial;
  batch.metrics = options.metrics;
  const std::vector<ExperimentResult> results = run_batch(specs, batch);
  EUCON_ASSERT(results.size() == num_arms * budget,
               "expand() and run_batch() disagree on run count");

  SteeringReport report;
  report.scenario = sc.name;
  report.rounds = 1;
  report.total_replications = results.size();
  report.exhaustive_replications = results.size();
  report.replication_savings = 1.0;
  report.arms.reserve(num_arms);
  // expand() is controller-major: runs [arm * budget, (arm + 1) * budget).
  for (std::size_t arm = 0; arm < num_arms; ++arm) {
    RunningStats stats;
    for (std::size_t j = 0; j < budget; ++j)
      stats.add(run_score(results[arm * budget + j]));
    ArmOutcome outcome;
    outcome.controller = controller_kind_name(sc.controllers[arm]);
    outcome.mean = stats.mean();
    outcome.radius = bound_radius(stats, num_arms, options.bai);
    outcome.pulls = stats.count();
    report.arms.push_back(std::move(outcome));
  }

  std::size_t winner = 0;
  for (std::size_t arm = 1; arm < num_arms; ++arm)
    if (report.arms[arm].mean > report.arms[winner].mean) winner = arm;
  report.winner = report.arms[winner].controller;
  // "Decided" for the fixed grid means the winner's interval cleanly beats
  // every other arm's — the same evidence bar steering applies.
  report.decided = true;
  for (std::size_t arm = 0; arm < num_arms; ++arm) {
    if (arm == winner) continue;
    if (report.arms[winner].mean - report.arms[winner].radius <=
        report.arms[arm].mean + report.arms[arm].radius)
      report.decided = false;
  }
  return report;
}

}  // namespace eucon::steer
