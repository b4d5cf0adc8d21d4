#include "rts/etf.h"

#include <gtest/gtest.h>

#include "common/stats.h"

namespace eucon::rts {
namespace {

TEST(EtfProfileTest, ConstantProfile) {
  const EtfProfile p = EtfProfile::constant(0.5);
  EXPECT_DOUBLE_EQ(p.factor_at(0), 0.5);
  EXPECT_DOUBLE_EQ(p.factor_at(units_to_ticks(1e6)), 0.5);
}

TEST(EtfProfileTest, StepsSelectByTime) {
  // The paper's Experiment II profile: 0.5, then 0.9 at 100Ts, 0.33 at 200Ts.
  const EtfProfile p = EtfProfile::steps(
      {{0.0, 0.5}, {100000.0, 0.9}, {200000.0, 0.33}});
  EXPECT_DOUBLE_EQ(p.factor_at(0), 0.5);
  EXPECT_DOUBLE_EQ(p.factor_at(units_to_ticks(99999.0)), 0.5);
  EXPECT_DOUBLE_EQ(p.factor_at(units_to_ticks(100000.0)), 0.9);
  EXPECT_DOUBLE_EQ(p.factor_at(units_to_ticks(150000.0)), 0.9);
  EXPECT_DOUBLE_EQ(p.factor_at(units_to_ticks(200000.0)), 0.33);
  EXPECT_DOUBLE_EQ(p.factor_at(units_to_ticks(300000.0)), 0.33);
}

TEST(EtfProfileTest, RejectsBadProfiles) {
  EXPECT_THROW(EtfProfile::constant(0.0), std::invalid_argument);
  EXPECT_THROW(EtfProfile::constant(-1.0), std::invalid_argument);
  EXPECT_THROW(EtfProfile::steps({}), std::invalid_argument);
  EXPECT_THROW(EtfProfile::steps({{5.0, 1.0}}), std::invalid_argument);  // no t=0
  EXPECT_THROW(EtfProfile::steps({{0.0, 1.0}, {0.0, 2.0}}),
               std::invalid_argument);  // not increasing
  EXPECT_THROW(EtfProfile::steps({{0.0, 1.0}, {10.0, -2.0}}),
               std::invalid_argument);
}

ExecModelParams uniform(double jitter) {
  ExecModelParams p;
  p.jitter = jitter;
  return p;
}

TEST(ExecTimeModelTest, DeterministicWithoutJitter) {
  const EtfProfile profile = EtfProfile::constant(0.5);
  Rng rng(1);
  EXPECT_EQ(draw_exec_time(profile, uniform(0.0), rng, 35.0, 0),
            units_to_ticks(17.5));
  EXPECT_EQ(draw_exec_time(profile, uniform(0.0), rng, 35.0, 12345),
            units_to_ticks(17.5));
}

TEST(ExecTimeModelTest, FollowsProfileSteps) {
  const EtfProfile profile = EtfProfile::steps({{0.0, 1.0}, {100.0, 2.0}});
  Rng rng(1);
  EXPECT_EQ(draw_exec_time(profile, uniform(0.0), rng, 10.0,
                           units_to_ticks(50.0)),
            units_to_ticks(10.0));
  EXPECT_EQ(draw_exec_time(profile, uniform(0.0), rng, 10.0,
                           units_to_ticks(150.0)),
            units_to_ticks(20.0));
}

TEST(ExecTimeModelTest, JitterStaysInBandAndHasUnitMean) {
  const double jitter = 0.2;
  const EtfProfile profile = EtfProfile::constant(1.0);
  const ExecModelParams params = uniform(jitter);
  Rng rng(3);
  RunningStats s;
  const double c = 40.0;
  for (int i = 0; i < 20000; ++i) {
    const Ticks t = draw_exec_time(profile, params, rng, c, 0);
    const double units = ticks_to_units(t);
    EXPECT_GE(units, c * (1.0 - jitter) - 1e-6);
    EXPECT_LE(units, c * (1.0 + jitter) + 1e-6);
    s.add(units);
  }
  EXPECT_NEAR(s.mean(), c, 0.1);  // unit-mean multiplier
}

TEST(ExecTimeModelTest, NeverReturnsZero) {
  Rng rng(1);
  EXPECT_GE(draw_exec_time(EtfProfile::constant(1e-9), uniform(0.0), rng,
                           1e-9, 0),
            1);
}

TEST(ExecTimeModelTest, RejectsBadJitter) {
  EXPECT_THROW(uniform(-0.1).validate(), std::invalid_argument);
  EXPECT_THROW(uniform(1.0).validate(), std::invalid_argument);
}

}  // namespace
}  // namespace eucon::rts
