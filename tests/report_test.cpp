#include "eucon/report.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "eucon/metrics.h"
#include "eucon/workloads.h"

namespace eucon::report {
namespace {

ExperimentResult small_run(rts::SystemSpec* spec_out = nullptr) {
  ExperimentConfig cfg;
  cfg.spec = workloads::simple();
  cfg.mpc = workloads::simple_controller_params();
  cfg.sim.etf = rts::EtfProfile::constant(0.5);
  cfg.num_periods = 30;
  if (spec_out) *spec_out = cfg.spec;
  return run_experiment(cfg);
}

TEST(ReportTest, UtilizationCsvShape) {
  const auto res = small_run();
  std::ostringstream out;
  write_utilization_csv(res, out);
  std::istringstream in(out.str());
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "k,u_P1,u_P2");
  int rows = 0;
  while (std::getline(in, line)) ++rows;
  EXPECT_EQ(rows, 30);
}

TEST(ReportTest, RatesCsvUsesTaskNames) {
  rts::SystemSpec spec;
  const auto res = small_run(&spec);
  std::ostringstream out;
  write_rates_csv(res, spec, out);
  std::string header = out.str().substr(0, out.str().find('\n'));
  EXPECT_EQ(header, "k,r_T1,r_T2,r_T3");
}

TEST(ReportTest, RatesCsvRejectsMismatchedSpec) {
  const auto res = small_run();
  std::ostringstream out;
  EXPECT_THROW(write_rates_csv(res, workloads::medium(), out),
               std::invalid_argument);
}

TEST(ReportTest, SummaryMentionsEveryProcessor) {
  const auto res = small_run();
  std::ostringstream out;
  write_summary(res, out, 10);
  const std::string s = out.str();
  EXPECT_NE(s.find("P1:"), std::string::npos);
  EXPECT_NE(s.find("P2:"), std::string::npos);
  EXPECT_NE(s.find("miss ratio"), std::string::npos);
}

TEST(ReportTest, SummaryWindowIsTheSteadyStateRule) {
  // 150 periods: past the paper's 100-period warm-up, so the report's
  // window starts where eucon_sim --summary and the steering score start.
  ExperimentConfig cfg;
  cfg.spec = workloads::simple();
  cfg.mpc = workloads::simple_controller_params();
  cfg.sim.etf = rts::EtfProfile::constant(0.5);
  cfg.num_periods = 150;
  const ExperimentResult res = run_experiment(cfg);
  ASSERT_EQ(metrics::steady_state_from(150), 100u);
  std::ostringstream out;
  write_summary(res, out);
  const std::string s = out.str();
  EXPECT_NE(s.find("steady-state window: [100, 150)"), std::string::npos)
      << s;
  std::ostringstream p1;
  p1 << "P1: mean " << metrics::acceptability(res, 0, 100).mean << " ";
  EXPECT_NE(s.find(p1.str()), std::string::npos) << s;
}

TEST(ReportTest, WriteAllCreatesThreeFiles) {
  rts::SystemSpec spec;
  const auto res = small_run(&spec);
  const std::string prefix = ::testing::TempDir() + "/report_test";
  write_all(res, spec, prefix);
  for (const char* suffix :
       {"_utilization.csv", "_rates.csv", "_summary.txt"}) {
    std::ifstream in(prefix + suffix);
    EXPECT_TRUE(in.good()) << suffix;
    std::string first_line;
    std::getline(in, first_line);
    EXPECT_FALSE(first_line.empty()) << suffix;
  }
}

TEST(ReportTest, SummaryHandlesEmptyTrace) {
  // A run that aborted before its first sampling period: the summary must
  // say so instead of feeding RunningStats' quiet-NaN min/max into the
  // output.
  ExperimentResult empty;
  std::ostringstream out;
  write_summary(empty, out);
  const std::string s = out.str();
  EXPECT_NE(s.find("periods: 0"), std::string::npos);
  EXPECT_NE(s.find("statistics skipped"), std::string::npos);
  EXPECT_EQ(s.find("nan"), std::string::npos) << s;
}

TEST(ReportTest, SummaryNotesTasksWithNoCompletedInstances) {
  auto res = small_run();
  // Graft a deadline table where T2 released an instance but never
  // completed one — its response-time window is empty (NaN min/max).
  rts::DeadlineStats d(2);
  d.on_instance_released(0);
  d.on_instance_completed(0, 150, 200, 0);
  d.on_instance_released(1);
  res.deadlines = d;
  std::ostringstream out;
  write_summary(res, out, 10);
  const std::string s = out.str();
  EXPECT_NE(s.find("T1 response time: min"), std::string::npos) << s;
  EXPECT_NE(s.find("T2 response time: no completed instances"),
            std::string::npos)
      << s;
  EXPECT_EQ(s.find("nan"), std::string::npos) << s;
}

TEST(ReportTest, SummaryRejectsWindowPastEndOfTrace) {
  const auto res = small_run();
  std::ostringstream out;
  EXPECT_THROW(write_summary(res, out, res.trace.size()),
               std::invalid_argument);
}

TEST(ReportTest, WriteAllRejectsBadPrefix) {
  rts::SystemSpec spec;
  const auto res = small_run(&spec);
  EXPECT_THROW(write_all(res, spec, "/nonexistent_dir_xyz/run"),
               std::invalid_argument);
}

}  // namespace
}  // namespace eucon::report
