// FaultPlan schema: the JSON parser, plan validation, and the FaultInjector
// state machine (scripted windows, determinism, draw-count discipline).
#include "eucon/faults.h"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

namespace eucon::faults {
namespace {

TEST(FaultPlanTest, EmptyObjectIsEmptyPlan) {
  const FaultPlan plan = parse_fault_plan("{}");
  EXPECT_TRUE(plan.empty());
  EXPECT_EQ(plan.seed, 0u);
  EXPECT_EQ(plan.actuation_delay, 0);
  EXPECT_FALSE(plan.lane_loss.enabled());
}

TEST(FaultPlanTest, ParsesFullSchema) {
  const FaultPlan plan = parse_fault_plan(R"({
    "seed": 7,
    "gilbert_elliott": {"p_enter": 0.05, "p_exit": 0.3,
                        "loss_good": 0.01, "loss_bad": 0.9},
    "actuation_loss": 0.1,
    "actuation_delay": 2,
    "lane_outages": [{"lane": 0, "start": 5, "duration": 50}],
    "actuation_outages": [{"processor": 1, "start": 20, "duration": 5}],
    "overload_spikes": [{"processor": 0, "start": 30, "duration": 10,
                         "exec": 50.0}],
    "controller_blackouts": [{"start": 60, "duration": 10}]
  })");
  EXPECT_FALSE(plan.empty());
  EXPECT_EQ(plan.seed, 7u);
  EXPECT_TRUE(plan.lane_loss.enabled());
  EXPECT_DOUBLE_EQ(plan.lane_loss.p_enter, 0.05);
  EXPECT_DOUBLE_EQ(plan.lane_loss.p_exit, 0.3);
  EXPECT_DOUBLE_EQ(plan.lane_loss.loss_good, 0.01);
  EXPECT_DOUBLE_EQ(plan.lane_loss.loss_bad, 0.9);
  EXPECT_DOUBLE_EQ(plan.actuation_loss, 0.1);
  EXPECT_EQ(plan.actuation_delay, 2);
  ASSERT_EQ(plan.lane_outages.size(), 1u);
  EXPECT_EQ(plan.lane_outages[0].lane, 0);
  EXPECT_EQ(plan.lane_outages[0].start, 5);
  EXPECT_EQ(plan.lane_outages[0].duration, 50);
  ASSERT_EQ(plan.actuation_outages.size(), 1u);
  EXPECT_EQ(plan.actuation_outages[0].processor, 1);
  ASSERT_EQ(plan.overload_spikes.size(), 1u);
  EXPECT_DOUBLE_EQ(plan.overload_spikes[0].exec_units, 50.0);
  ASSERT_EQ(plan.blackouts.size(), 1u);
  EXPECT_EQ(plan.blackouts[0].start, 60);
  EXPECT_EQ(plan.blackouts[0].duration, 10);
  plan.validate(2);  // must not throw for a 2-processor system
}

TEST(FaultPlanTest, UnknownKeysRejected) {
  // A typoed field must never silently disable a fault source.
  EXPECT_THROW(parse_fault_plan(R"({"sed": 7})"), std::invalid_argument);
  EXPECT_THROW(parse_fault_plan(R"({"gilbert_elliott": {"p_entr": 0.1}})"),
               std::invalid_argument);
  EXPECT_THROW(parse_fault_plan(R"({"lane_outages": [{"lan": 0}]})"),
               std::invalid_argument);
  EXPECT_THROW(
      parse_fault_plan(R"({"controller_blackouts": [{"begin": 3}]})"),
      std::invalid_argument);
}

TEST(FaultPlanTest, MalformedJsonRejected) {
  EXPECT_THROW(parse_fault_plan(""), std::invalid_argument);
  EXPECT_THROW(parse_fault_plan("["), std::invalid_argument);
  EXPECT_THROW(parse_fault_plan("{"), std::invalid_argument);
  EXPECT_THROW(parse_fault_plan(R"({"seed": })"), std::invalid_argument);
  EXPECT_THROW(parse_fault_plan(R"({"seed" 7})"), std::invalid_argument);
  EXPECT_THROW(parse_fault_plan(R"({"seed": 7} trailing)"),
               std::invalid_argument);
  EXPECT_THROW(parse_fault_plan(R"({"seed": "unterminated)"),
               std::invalid_argument);
  EXPECT_THROW(parse_fault_plan(R"({"seed": nan})"), std::invalid_argument);
}

TEST(FaultPlanTest, NullValuesRejected) {
  // The reader parses null; the plan's typed accessors still refuse it.
  EXPECT_THROW(parse_fault_plan(R"({"seed": null})"), std::invalid_argument);
  EXPECT_THROW(parse_fault_plan(R"({"lane_outages": null})"),
               std::invalid_argument);
  EXPECT_THROW(
      parse_fault_plan(R"({"controller_blackouts": [{"start": null}]})"),
      std::invalid_argument);
}

TEST(FaultPlanTest, ValidateRejectsOutOfRange) {
  FaultPlan plan;
  plan.lane_loss.p_enter = 1.5;
  EXPECT_THROW(plan.validate(2), std::invalid_argument);

  plan = FaultPlan{};
  plan.actuation_loss = 1.0;  // must stay < 1: a command must eventually land
  EXPECT_THROW(plan.validate(2), std::invalid_argument);

  plan = FaultPlan{};
  plan.actuation_delay = -1;
  EXPECT_THROW(plan.validate(2), std::invalid_argument);

  plan = FaultPlan{};
  plan.lane_outages.push_back({2, 1, 1});  // lane index out of range
  EXPECT_THROW(plan.validate(2), std::invalid_argument);

  plan = FaultPlan{};
  plan.lane_outages.push_back({0, 0, 1});  // periods are 1-based
  EXPECT_THROW(plan.validate(2), std::invalid_argument);

  plan = FaultPlan{};
  plan.blackouts.push_back({1, 0});  // empty window
  EXPECT_THROW(plan.validate(2), std::invalid_argument);

  plan = FaultPlan{};
  plan.overload_spikes.push_back({0, 1, 1, 0.0});  // no-op spike
  EXPECT_THROW(plan.validate(2), std::invalid_argument);
}

TEST(FaultPlanTest, StationaryLossClosedForm) {
  GilbertElliott ge;
  ge.p_enter = 0.05;
  ge.p_exit = 0.25;
  ge.loss_good = 0.02;
  ge.loss_bad = 0.8;
  const double pi_bad = 0.05 / 0.3;
  EXPECT_NEAR(ge.stationary_loss(),
              (1.0 - pi_bad) * 0.02 + pi_bad * 0.8, 1e-12);
  // Disabled model never loses.
  EXPECT_DOUBLE_EQ(GilbertElliott{}.stationary_loss(), 0.0);
}

TEST(FaultPlanTest, DegradePolicyNamesRoundTrip) {
  const DegradePolicy all[] = {DegradePolicy::kNone, DegradePolicy::kHoldRates,
                               DegradePolicy::kOpenLoop,
                               DegradePolicy::kDecentralized};
  for (DegradePolicy p : all) {
    EXPECT_EQ(parse_degrade_policy(degrade_policy_name(p)), p);
  }
  EXPECT_THROW(parse_degrade_policy("hold"), std::invalid_argument);
  EXPECT_THROW(parse_degrade_policy(""), std::invalid_argument);
}

TEST(FaultPlanTest, InjectorHonorsScriptedWindows) {
  FaultPlan plan;
  plan.lane_outages.push_back({1, 3, 2});       // lane 1 down at k = 3, 4
  plan.actuation_outages.push_back({0, 2, 1});  // processor 0 at k = 2
  plan.overload_spikes.push_back({0, 4, 2, 10.0});
  plan.overload_spikes.push_back({0, 5, 1, 5.0});  // overlaps at k = 5
  plan.blackouts.push_back({5, 1});
  FaultInjector inj(plan, 2, 1);

  for (int k = 1; k <= 6; ++k) {
    inj.begin_period(k);
    const bool lane1_down = k == 3 || k == 4;
    EXPECT_EQ(inj.lane_loss_mask()[1] != 0, lane1_down) << "k=" << k;
    EXPECT_EQ(inj.lane_loss_mask()[0], 0) << "k=" << k;
    EXPECT_EQ(inj.forced_losses_this_period(), lane1_down ? 1u : 0u);
    EXPECT_EQ(inj.actuation_lost(0), k == 2) << "k=" << k;
    EXPECT_FALSE(inj.actuation_lost(1));
    const double overload = k == 4 ? 10.0 : (k == 5 ? 15.0 : 0.0);
    EXPECT_DOUBLE_EQ(inj.overload_for(0), overload) << "k=" << k;
    EXPECT_DOUBLE_EQ(inj.overload_for(1), 0.0);
    EXPECT_EQ(inj.controller_down(), k == 5) << "k=" << k;
  }
  EXPECT_EQ(inj.forced_losses_total(), 2u);
}

TEST(FaultPlanTest, InjectorIsDeterministicPerSeed) {
  FaultPlan plan;
  plan.lane_loss.p_enter = 0.1;
  plan.lane_loss.p_exit = 0.3;
  plan.lane_loss.loss_good = 0.05;
  plan.lane_loss.loss_bad = 0.9;
  plan.actuation_loss = 0.2;

  FaultInjector a(plan, 3, 42), b(plan, 3, 42), c(plan, 3, 43);
  bool any_difference_from_c = false;
  for (int k = 1; k <= 200; ++k) {
    a.begin_period(k);
    b.begin_period(k);
    c.begin_period(k);
    EXPECT_EQ(a.lane_loss_mask(), b.lane_loss_mask()) << "k=" << k;
    for (std::size_t p = 0; p < 3; ++p) {
      EXPECT_EQ(a.actuation_lost(p), b.actuation_lost(p));
    }
    if (a.lane_loss_mask() != c.lane_loss_mask()) any_difference_from_c = true;
  }
  EXPECT_EQ(a.forced_losses_total(), b.forced_losses_total());
  // A different run seed must draw a different stream.
  EXPECT_TRUE(any_difference_from_c);
}

TEST(FaultPlanTest, InjectorRequiresSequentialPeriods) {
  const FaultPlan plan;
  FaultInjector inj(plan, 2, 1);
  EXPECT_THROW(inj.begin_period(2), std::invalid_argument);
  inj.begin_period(1);
  EXPECT_THROW(inj.begin_period(1), std::invalid_argument);
  EXPECT_THROW(inj.begin_period(3), std::invalid_argument);
  inj.begin_period(2);
}

TEST(FaultPlanTest, LoadFileErrorsAreFriendly) {
  EXPECT_THROW(load_fault_plan_file("/nonexistent/plan.json"),
               std::runtime_error);
}

}  // namespace
}  // namespace eucon::faults
