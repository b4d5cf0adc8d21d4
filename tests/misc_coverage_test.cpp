// Remaining small coverage gaps across modules.
#include <gtest/gtest.h>

#include "eucon/eucon.h"

namespace eucon {
namespace {

TEST(MiscTest, AllControllerKindNames) {
  EXPECT_STREQ(controller_kind_name(ControllerKind::kEucon), "EUCON");
  EXPECT_STREQ(controller_kind_name(ControllerKind::kOpen), "OPEN");
  EXPECT_STREQ(controller_kind_name(ControllerKind::kPid), "PID");
  EXPECT_STREQ(controller_kind_name(ControllerKind::kDecentralized), "DEUCON");
  EXPECT_STREQ(controller_kind_name(ControllerKind::kAdaptive), "EUCON-A");
  EXPECT_STREQ(controller_kind_name(ControllerKind::kUncoordinated),
               "FCS-IND");
  EXPECT_STREQ(controller_kind_name(ControllerKind::kHierarchical), "HIER");
}

TEST(MiscTest, ControllerNamesMatchKinds) {
  for (auto kind :
       {ControllerKind::kEucon, ControllerKind::kOpen, ControllerKind::kPid,
        ControllerKind::kDecentralized, ControllerKind::kAdaptive,
        ControllerKind::kUncoordinated, ControllerKind::kHierarchical}) {
    ExperimentConfig cfg;
    cfg.spec = workloads::simple();
    cfg.mpc = workloads::simple_controller_params();
    cfg.controller = kind;
    const auto controller = make_controller(cfg);
    EXPECT_EQ(controller->name(), controller_kind_name(kind));
  }
}

TEST(MiscTest, CompletionExactlyAtWindowBoundary) {
  // A job finishing exactly at the sampling boundary is fully accounted
  // in the window it executed in. c = 500, period 1000, released at 0 and
  // 1000: each window is exactly half busy.
  rts::SystemSpec s;
  s.num_processors = 1;
  rts::TaskSpec t;
  t.name = "T";
  t.subtasks = {{0, 500.0}};
  t.rate_min = 1e-4;
  t.rate_max = 1.0 / 500.0;
  t.initial_rate = 1.0 / 1000.0;
  s.tasks = {t};
  rts::Simulator sim(s, rts::SimOptions{});
  for (int k = 1; k <= 5; ++k) {
    sim.run_until_units(k * 1000.0);
    EXPECT_DOUBLE_EQ(sim.sample_utilizations()[0], 0.5) << "window " << k;
  }
}

TEST(MiscTest, BackToBackWindowsOfDifferentLength) {
  rts::Simulator sim(workloads::simple(), rts::SimOptions{});
  sim.run_until_units(100.0);
  const auto u_short = sim.sample_utilizations();
  sim.run_until_units(2100.0);
  const auto u_long = sim.sample_utilizations();
  for (double u : u_short) EXPECT_LE(u, 1.0);
  for (double u : u_long) EXPECT_LE(u, 1.0);
}

TEST(MiscTest, MpcUpdateCountAndStatusExposed) {
  const auto model = control::make_plant_model(workloads::simple());
  control::MpcController ctrl(model, workloads::simple_controller_params(),
                              workloads::simple().initial_rate_vector());
  EXPECT_EQ(ctrl.update_count(), 0u);
  (void)ctrl.update(linalg::Vector{0.5, 0.5});
  (void)ctrl.update(linalg::Vector{0.6, 0.6});
  EXPECT_EQ(ctrl.update_count(), 2u);
  EXPECT_EQ(ctrl.diagnostics()->status, qp::Status::kOptimal);
}

TEST(MiscTest, GainEstimateRoundTrip) {
  const auto model = control::make_plant_model(workloads::simple());
  control::MpcController ctrl(model, workloads::simple_controller_params(),
                              workloads::simple().initial_rate_vector());
  ctrl.set_gain_estimate(linalg::Vector{1.5, 0.5});
  EXPECT_DOUBLE_EQ(ctrl.gain_estimate()[0], 1.5);
  EXPECT_DOUBLE_EQ(ctrl.gain_estimate()[1], 0.5);
}

TEST(MiscTest, EnabledTasksRoundTrip) {
  const auto model = control::make_plant_model(workloads::simple());
  control::MpcController ctrl(model, workloads::simple_controller_params(),
                              workloads::simple().initial_rate_vector());
  ctrl.set_enabled_tasks({true, false, true});
  EXPECT_FALSE(ctrl.enabled_tasks()[1]);
  // All-disabled is rejected.
  EXPECT_THROW(ctrl.set_enabled_tasks({false, false, false}),
               std::invalid_argument);
  // Disabled task's rate frozen across updates.
  const double r1_before = ctrl.current_rates()[1];
  (void)ctrl.update(linalg::Vector{0.3, 0.3});
  EXPECT_DOUBLE_EQ(ctrl.current_rates()[1], r1_before);
}

TEST(MiscTest, EtfFactorAccessors) {
  rts::SimOptions opts;
  opts.etf = rts::EtfProfile::steps({{0.0, 0.5}, {1000.0, 2.0}});
  rts::Simulator sim(workloads::simple(), opts);
  EXPECT_DOUBLE_EQ(sim.execution_time_factor_now(), 0.5);
  sim.run_until_units(1500.0);
  EXPECT_DOUBLE_EQ(sim.execution_time_factor_now(), 2.0);
  EXPECT_DOUBLE_EQ(sim.now_units(), 1500.0);
}

}  // namespace
}  // namespace eucon
