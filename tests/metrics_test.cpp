#include "eucon/metrics.h"

#include <gtest/gtest.h>

namespace eucon::metrics {
namespace {

// Builds a synthetic result with a given utilization series on one CPU.
ExperimentResult make_result(const std::vector<double>& series,
                             double set_point = 0.8) {
  ExperimentResult res;
  res.set_points = linalg::Vector{set_point};
  for (std::size_t i = 0; i < series.size(); ++i) {
    SampleRecord rec;
    rec.k = static_cast<int>(i + 1);
    rec.u = {series[i]};
    rec.rates = {0.01};
    res.trace.push_back(rec);
  }
  return res;
}

TEST(MetricsTest, StatsOverWindow) {
  const auto res = make_result({0.0, 0.5, 0.7, 0.9});
  const RunningStats s = utilization_stats(res, 0, 1, 4);
  EXPECT_NEAR(s.mean(), 0.7, 1e-12);
}

TEST(MetricsTest, AcceptabilityWithinTolerances) {
  std::vector<double> series(200, 0.81);
  const auto res = make_result(series, 0.8);
  const Acceptability a = acceptability(res, 0, 100);
  EXPECT_TRUE(a.mean_ok);
  EXPECT_TRUE(a.stddev_ok);
  EXPECT_TRUE(a.acceptable());
}

TEST(MetricsTest, MeanOutsideTolerance) {
  std::vector<double> series(200, 0.75);
  const auto res = make_result(series, 0.8);
  const Acceptability a = acceptability(res, 0, 100);
  EXPECT_FALSE(a.mean_ok);
  EXPECT_TRUE(a.stddev_ok);
  EXPECT_FALSE(a.acceptable());
}

TEST(MetricsTest, OscillationFailsStddev) {
  std::vector<double> series;
  for (int i = 0; i < 200; ++i) series.push_back(i % 2 ? 0.9 : 0.7);
  const auto res = make_result(series, 0.8);
  const Acceptability a = acceptability(res, 0, 100);
  EXPECT_TRUE(a.mean_ok);       // mean is exactly 0.8
  EXPECT_FALSE(a.stddev_ok);    // sigma = 0.1 > 0.05
}

TEST(MetricsTest, AllAcceptableCoversEveryProcessor) {
  ExperimentResult res;
  res.set_points = linalg::Vector{0.8, 0.8};
  for (int i = 0; i < 200; ++i) {
    SampleRecord rec;
    rec.k = i + 1;
    rec.u = {0.8, i < 150 ? 0.8 : 0.2};  // P2 breaks late in the window
    res.trace.push_back(rec);
  }
  EXPECT_FALSE(all_acceptable(res, 100));
  EXPECT_TRUE(all_acceptable(res, 100, 140));
}

TEST(MetricsTest, SettlingTimeImmediate) {
  std::vector<double> series(100, 0.8);
  const auto res = make_result(series, 0.8);
  EXPECT_EQ(settling_time(res, 0, 10, 0.05, 5), 0);
}

TEST(MetricsTest, SettlingTimeAfterTransient) {
  std::vector<double> series;
  for (int i = 0; i < 100; ++i) series.push_back(i < 30 ? 0.4 : 0.8);
  const auto res = make_result(series, 0.8);
  EXPECT_EQ(settling_time(res, 0, 10, 0.05, 5), 20);  // settles at index 30
}

TEST(MetricsTest, SettlingTimeNeverReturnsMinusOne) {
  std::vector<double> series(100, 0.3);
  const auto res = make_result(series, 0.8);
  EXPECT_EQ(settling_time(res, 0, 10), -1);
}

TEST(MetricsTest, SettlingResetOnExcursion) {
  std::vector<double> series;
  for (int i = 0; i < 100; ++i)
    series.push_back(i >= 20 && i < 24 ? 0.8 : (i >= 40 ? 0.8 : 0.4));
  const auto res = make_result(series, 0.8);
  // The 4-period touch at 20..23 must not count with hold = 10.
  EXPECT_EQ(settling_time(res, 0, 0, 0.05, 10), 40);
}

TEST(MetricsTest, SteadyStateWindowStartsAtTheWarmUpOrAThird) {
  EXPECT_EQ(steady_state_from(300), 100u);
  EXPECT_EQ(steady_state_from(101), 100u);
  EXPECT_EQ(steady_state_from(100), 33u);
  EXPECT_EQ(steady_state_from(50), 16u);
  EXPECT_EQ(steady_state_from(2), 0u);
}

TEST(MetricsTest, BadWindowThrows) {
  const auto res = make_result(std::vector<double>(10, 0.8));
  EXPECT_THROW(utilization_stats(res, 0, 5, 20), std::invalid_argument);
  EXPECT_THROW(settling_time(res, 0, 50), std::invalid_argument);
}

}  // namespace
}  // namespace eucon::metrics
