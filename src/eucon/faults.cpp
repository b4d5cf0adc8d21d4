#include "eucon/faults.h"

#include <fstream>
#include <sstream>
#include <utility>

#include "common/check.h"
#include "eucon/json_reader.h"

namespace eucon::faults {

double GilbertElliott::stationary_loss() const {
  if (!enabled()) return 0.0;
  const double denom = p_enter + p_exit;
  const double pi_bad = denom > 0.0 ? p_enter / denom : 1.0;
  return (1.0 - pi_bad) * loss_good + pi_bad * loss_bad;
}

bool FaultPlan::empty() const {
  return !lane_loss.enabled() && actuation_loss <= 0.0 &&
         actuation_delay == 0 && lane_outages.empty() &&
         actuation_outages.empty() && overload_spikes.empty() &&
         blackouts.empty();
}

namespace {

void require_probability(double p, const char* what) {
  EUCON_REQUIRE(p >= 0.0 && p <= 1.0,
                std::string(what) + " must be a probability in [0, 1]");
}

void require_window(int start, int duration, const char* what) {
  EUCON_REQUIRE(start >= 1,
                std::string(what) + " start must be a 1-based period index");
  EUCON_REQUIRE(duration >= 1,
                std::string(what) + " duration must be at least one period");
}

bool in_window(int k, int start, int duration) {
  return k >= start && k < start + duration;
}

}  // namespace

void FaultPlan::validate(int num_processors) const {
  EUCON_REQUIRE(num_processors > 0, "fault plan needs at least one processor");
  require_probability(lane_loss.p_enter, "gilbert_elliott.p_enter");
  require_probability(lane_loss.p_exit, "gilbert_elliott.p_exit");
  require_probability(lane_loss.loss_good, "gilbert_elliott.loss_good");
  require_probability(lane_loss.loss_bad, "gilbert_elliott.loss_bad");
  EUCON_REQUIRE(actuation_loss >= 0.0 && actuation_loss < 1.0,
                "actuation_loss must be in [0, 1)");
  EUCON_REQUIRE(actuation_delay >= 0,
                "actuation_delay must be a non-negative period count");
  for (const LaneOutage& o : lane_outages) {
    EUCON_REQUIRE(o.lane >= 0 && o.lane < num_processors,
                  "lane_outages lane out of range");
    require_window(o.start, o.duration, "lane_outages");
  }
  for (const ActuationOutage& o : actuation_outages) {
    EUCON_REQUIRE(o.processor >= 0 && o.processor < num_processors,
                  "actuation_outages processor out of range");
    require_window(o.start, o.duration, "actuation_outages");
  }
  for (const OverloadSpike& s : overload_spikes) {
    EUCON_REQUIRE(s.processor >= 0 && s.processor < num_processors,
                  "overload_spikes processor out of range");
    require_window(s.start, s.duration, "overload_spikes");
    EUCON_REQUIRE(s.exec_units > 0.0,
                  "overload_spikes exec must be positive time units");
  }
  for (const ControllerBlackout& b : blackouts)
    require_window(b.start, b.duration, "controller_blackouts");
}

// ---------------------------------------------------------------------------
// Plan parsing against the plan schema (docs/robustness.md), through the
// shared JSON reader; errors carry the byte offset for one-line
// diagnostics.
// ---------------------------------------------------------------------------

namespace {

constexpr json::Schema kPlan("fault plan", /*allow_empty_arrays=*/true);

GilbertElliott parse_gilbert_elliott(const json::Value& v) {
  GilbertElliott ge;
  // A configured block means "model on": loss_bad defaults to 1 and p_exit
  // to 1 (single-period bursts) unless overridden.
  kPlan.for_each_member(
      v, "gilbert_elliott", [&](const std::string& key, const json::Value& val) {
        if (key == "p_enter") ge.p_enter = kPlan.number(val, key);
        else if (key == "p_exit") ge.p_exit = kPlan.number(val, key);
        else if (key == "loss_good") ge.loss_good = kPlan.number(val, key);
        else if (key == "loss_bad") ge.loss_bad = kPlan.number(val, key);
        else return false;
        return true;
      });
  return ge;
}

}  // namespace

FaultPlan parse_fault_plan(const std::string& text) {
  const json::Value root = kPlan.parse(text);
  FaultPlan plan;
  kPlan.for_each_member(root, "plan", [&](const std::string& key,
                                          const json::Value& v) {
    if (key == "seed") {
      plan.seed = kPlan.u64(v, key);
    } else if (key == "gilbert_elliott") {
      plan.lane_loss = parse_gilbert_elliott(v);
    } else if (key == "actuation_loss") {
      plan.actuation_loss = kPlan.number(v, key);
    } else if (key == "actuation_delay") {
      plan.actuation_delay = kPlan.integer(v, key);
    } else if (key == "lane_outages") {
      for (const json::Value& item : kPlan.array(v, key)) {
        LaneOutage o;
        kPlan.for_each_member(
            item, "lane_outages entry",
            [&](const std::string& k2, const json::Value& v2) {
              if (k2 == "lane") o.lane = kPlan.integer(v2, k2);
              else if (k2 == "start") o.start = kPlan.integer(v2, k2);
              else if (k2 == "duration") o.duration = kPlan.integer(v2, k2);
              else return false;
              return true;
            });
        plan.lane_outages.push_back(o);
      }
    } else if (key == "actuation_outages") {
      for (const json::Value& item : kPlan.array(v, key)) {
        ActuationOutage o;
        kPlan.for_each_member(
            item, "actuation_outages entry",
            [&](const std::string& k2, const json::Value& v2) {
              if (k2 == "processor") o.processor = kPlan.integer(v2, k2);
              else if (k2 == "start") o.start = kPlan.integer(v2, k2);
              else if (k2 == "duration") o.duration = kPlan.integer(v2, k2);
              else return false;
              return true;
            });
        plan.actuation_outages.push_back(o);
      }
    } else if (key == "overload_spikes") {
      for (const json::Value& item : kPlan.array(v, key)) {
        OverloadSpike s;
        kPlan.for_each_member(
            item, "overload_spikes entry",
            [&](const std::string& k2, const json::Value& v2) {
              if (k2 == "processor") s.processor = kPlan.integer(v2, k2);
              else if (k2 == "start") s.start = kPlan.integer(v2, k2);
              else if (k2 == "duration") s.duration = kPlan.integer(v2, k2);
              else if (k2 == "exec") s.exec_units = kPlan.number(v2, k2);
              else return false;
              return true;
            });
        plan.overload_spikes.push_back(s);
      }
    } else if (key == "controller_blackouts") {
      for (const json::Value& item : kPlan.array(v, key)) {
        ControllerBlackout b;
        kPlan.for_each_member(
            item, "controller_blackouts entry",
            [&](const std::string& k2, const json::Value& v2) {
              if (k2 == "start") b.start = kPlan.integer(v2, k2);
              else if (k2 == "duration") b.duration = kPlan.integer(v2, k2);
              else return false;
              return true;
            });
        plan.blackouts.push_back(b);
      }
    } else {
      return false;
    }
    return true;
  });
  return plan;
}

FaultPlan load_fault_plan_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) EUCON_FAIL("cannot open fault plan: " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return parse_fault_plan(buf.str());
}

const char* degrade_policy_name(DegradePolicy policy) {
  switch (policy) {
    case DegradePolicy::kNone:
      return "none";
    case DegradePolicy::kHoldRates:
      return "hold-rates";
    case DegradePolicy::kOpenLoop:
      return "open-loop";
    case DegradePolicy::kDecentralized:
      return "decentralized";
  }
  return "?";
}

DegradePolicy parse_degrade_policy(const std::string& name) {
  if (name == "none") return DegradePolicy::kNone;
  if (name == "hold-rates") return DegradePolicy::kHoldRates;
  if (name == "open-loop") return DegradePolicy::kOpenLoop;
  if (name == "decentralized") return DegradePolicy::kDecentralized;
  EUCON_FAIL_INVALID("unknown degradation policy: " + name +
                     " (expected none, hold-rates, open-loop or decentralized)");
}

// ---------------------------------------------------------------------------
// FaultInjector
// ---------------------------------------------------------------------------

namespace {

// Folds the plan seed into the run's sim seed so distinct runs of one plan
// (and distinct plans on one run seed) draw independent streams.
Rng fault_base_rng(const FaultPlan& plan, std::uint64_t run_seed) {
  std::uint64_t state = run_seed ^ (plan.seed * 0x9e3779b97f4a7c15ULL);
  return Rng(splitmix64_next(state));
}

}  // namespace

FaultInjector::FaultInjector(const FaultPlan& plan, std::size_t num_processors,
                             std::uint64_t run_seed)
    : plan_(plan),
      num_processors_(num_processors),
      ge_bad_(num_processors, 0),
      actuation_rng_(fault_base_rng(plan, run_seed).split(0xac70)),
      lane_lost_(num_processors, 0),
      actuation_lost_(num_processors, 0),
      overload_(num_processors, 0.0) {
  EUCON_REQUIRE(num_processors > 0, "fault injector needs processors");
  plan_.validate(eucon::narrow<int>(num_processors));
  const Rng base = fault_base_rng(plan, run_seed);
  lane_rng_.reserve(num_processors);
  for (std::size_t p = 0; p < num_processors; ++p)
    lane_rng_.push_back(base.split(0x6e01 + p));
}

void FaultInjector::begin_period(int k) {
  EUCON_REQUIRE(k == period_ + 1,
                "begin_period must be called once per period, in order");
  period_ = k;
  forced_this_period_ = 0;
  controller_down_ = false;
  for (const ControllerBlackout& b : plan_.blackouts)
    if (in_window(k, b.start, b.duration)) controller_down_ = true;

  for (std::size_t p = 0; p < num_processors_; ++p) {
    bool lost = false;
    if (plan_.lane_loss.enabled()) {
      // Fixed draw count per lane per period (one transition draw + one
      // loss draw) keeps the stream independent of the realized states.
      Rng& rng = lane_rng_[p];
      const double transition = rng.next_double();
      const double loss = rng.next_double();
      if (ge_bad_[p] != 0) {
        if (transition < plan_.lane_loss.p_exit) ge_bad_[p] = 0;
      } else {
        if (transition < plan_.lane_loss.p_enter) ge_bad_[p] = 1;
      }
      const double loss_prob = ge_bad_[p] != 0 ? plan_.lane_loss.loss_bad
                                               : plan_.lane_loss.loss_good;
      lost = loss < loss_prob;
    }
    for (const LaneOutage& o : plan_.lane_outages)
      if (static_cast<std::size_t>(o.lane) == p &&
          in_window(k, o.start, o.duration))
        lost = true;
    lane_lost_[p] = lost ? 1 : 0;
    if (lost) {
      ++forced_this_period_;
      ++forced_total_;
    }

    bool act_lost = false;
    if (plan_.actuation_loss > 0.0)
      act_lost = actuation_rng_.next_double() < plan_.actuation_loss;
    for (const ActuationOutage& o : plan_.actuation_outages)
      if (static_cast<std::size_t>(o.processor) == p &&
          in_window(k, o.start, o.duration))
        act_lost = true;
    actuation_lost_[p] = act_lost ? 1 : 0;

    double extra = 0.0;
    for (const OverloadSpike& s : plan_.overload_spikes)
      if (static_cast<std::size_t>(s.processor) == p &&
          in_window(k, s.start, s.duration))
        extra += s.exec_units;
    overload_[p] = extra;
  }
}

bool FaultInjector::actuation_lost(std::size_t processor) const {
  EUCON_REQUIRE(processor < num_processors_, "processor index out of range");
  return actuation_lost_[processor] != 0;
}

double FaultInjector::overload_for(std::size_t processor) const {
  EUCON_REQUIRE(processor < num_processors_, "processor index out of range");
  return overload_[processor];
}

}  // namespace eucon::faults
