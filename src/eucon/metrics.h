// Evaluation metrics used throughout the paper's §7.
#pragma once

#include <cstddef>
#include <vector>

#include "common/stats.h"
#include "eucon/experiment.h"

namespace eucon::metrics {

// The paper's steady-state measurement window: sampling periods
// [100Ts, 300Ts], i.e. trace indices [100, 300) with 1-based k.
inline constexpr std::size_t kSteadyStateFrom = 100;

// Where the steady-state window of a `periods`-long trace starts: the
// paper's kSteadyStateFrom when the trace is longer than that, else a third
// of the trace. Every summary (eucon_sim --summary and --replicas, the
// report files, the steering score) uses this one rule.
constexpr std::size_t steady_state_from(std::size_t periods) {
  return periods > kSteadyStateFrom ? kSteadyStateFrom : periods / 3;
}

// Mean/σ of a processor's utilization over trace window [from, to) (k
// indices, 1-based; to = 0 means end of trace).
RunningStats utilization_stats(const ExperimentResult& result,
                               std::size_t processor, std::size_t from,
                               std::size_t to = 0);

// The paper's acceptability criterion (§7.1): |mean - set point| <= 0.02
// and σ < 0.05 over the window.
struct Acceptability {
  double mean = 0.0;
  double stddev = 0.0;
  double set_point = 0.0;
  bool mean_ok = false;
  bool stddev_ok = false;
  bool acceptable() const { return mean_ok && stddev_ok; }
};

Acceptability acceptability(const ExperimentResult& result,
                            std::size_t processor,
                            std::size_t from = kSteadyStateFrom,
                            std::size_t to = 0, double mean_tol = 0.02,
                            double stddev_limit = 0.05);

// True when every processor is acceptable over the window.
bool all_acceptable(const ExperimentResult& result,
                    std::size_t from = kSteadyStateFrom, std::size_t to = 0);

// Application value accrued over a trace window (§3.1-3.2: a task running
// at a higher rate contributes a higher value; underutilization therefore
// means lost value). Each task contributes its normalized rate
// (r - R_min)/(R_max - R_min) in [0, 1] per period, optionally weighted;
// the result is the window-averaged total. This quantifies the claim that
// OPEN's pessimistic rates "waste" value that EUCON recovers.
double accrued_value(const ExperimentResult& result,
                     const rts::SystemSpec& spec,
                     std::size_t from = kSteadyStateFrom, std::size_t to = 0,
                     const std::vector<double>& weights = {});

// Settling time after a disturbance at period `event_k`: the number of
// periods until the processor's utilization stays within `band` of its set
// point for `hold` consecutive periods. Returns -1 when it never settles.
int settling_time(const ExperimentResult& result, std::size_t processor,
                  std::size_t event_k, double band = 0.05, int hold = 10);

}  // namespace eucon::metrics
