// Execution-time modeling (paper §7.1).
//
// Every subtask has a design-time estimate c_ij. The *actual* execution
// time of each job is  c_ij × etf(t) × J  where etf(t) is the (possibly
// time-varying) execution-time factor and J is a unit-mean uniform jitter
// on [1 - jitter, 1 + jitter]. With jitter = 0 execution times are exactly
// etf(t)·c_ij, which is how the SIMPLE experiments are described; MEDIUM
// uses "a uniform random distribution".
#pragma once

#include <vector>

#include "common/rng.h"
#include "common/ticks.h"

namespace eucon::rts {

// Piecewise-constant execution-time-factor schedule.
class EtfProfile {
 public:
  // Constant factor for the whole run.
  static EtfProfile constant(double factor);
  // Steps: (start time in time units, factor), strictly increasing times;
  // the first step must start at 0.
  static EtfProfile steps(std::vector<std::pair<double, double>> steps);

  double factor_at(Ticks t) const;

 private:
  struct Step {
    Ticks start;
    double factor;
  };
  std::vector<Step> steps_;
};

// Shape of the per-job variation multiplier (always unit mean, so etf
// stays exactly the ratio of average actual to estimated execution time).
enum class ExecDistribution {
  kUniform,      // U[1 - jitter, 1 + jitter] (the default; MEDIUM's model)
  kExponential,  // Exp(1): memoryless service times (server workloads)
  kBimodal,      // mostly nominal, occasional bursts of burst_factor
};

struct ExecModelParams {
  ExecDistribution distribution = ExecDistribution::kUniform;
  // kUniform: half-width of the band, in [0, 1). Ignored by the others.
  double jitter = 0.0;
  // kBimodal: with probability burst_prob the multiplier is burst_factor;
  // otherwise it is (1 - burst_prob*burst_factor)/(1 - burst_prob), which
  // keeps the mean at exactly 1. Requires burst_prob*burst_factor < 1.
  double burst_prob = 0.1;
  double burst_factor = 3.0;

  void validate() const;
};

// Actual execution time (ticks, >= 1) of one job of a subtask whose
// estimate is `estimated_exec` time units, released at time `t`: the
// estimate times profile.factor_at(t) times one multiplier drawn from
// `rng` (none for zero-jitter uniform). `params` must have passed
// validate(). The simulator keeps one Rng per subtask and calls this once
// per released job, so each subtask's draws stay in release order.
Ticks draw_exec_time(const EtfProfile& profile, const ExecModelParams& params,
                     Rng& rng, double estimated_exec, Ticks t);

}  // namespace eucon::rts
