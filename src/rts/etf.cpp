#include "rts/etf.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace eucon::rts {

EtfProfile EtfProfile::constant(double factor) {
  EUCON_REQUIRE(factor > 0.0, "execution-time factor must be positive");
  EtfProfile p;
  p.steps_.push_back({0, factor});
  return p;
}

EtfProfile EtfProfile::steps(std::vector<std::pair<double, double>> steps) {
  EUCON_REQUIRE(!steps.empty(), "etf profile needs at least one step");
  EUCON_REQUIRE(steps.front().first == 0.0, "etf profile must start at time 0");  // eucon-lint: allow(float-equality)
  EtfProfile p;
  Ticks prev = -1;
  for (const auto& [time_units, factor] : steps) {
    EUCON_REQUIRE(factor > 0.0, "execution-time factor must be positive");
    const Ticks start = units_to_ticks(time_units);
    EUCON_REQUIRE(start > prev, "etf profile steps must be strictly increasing");
    prev = start;
    p.steps_.push_back({start, factor});
  }
  return p;
}

double EtfProfile::factor_at(Ticks t) const {
  // Last step whose start is <= t.
  double f = steps_.front().factor;
  for (const auto& s : steps_) {
    if (s.start <= t)
      f = s.factor;
    else
      break;
  }
  return f;
}

void ExecModelParams::validate() const {
  EUCON_REQUIRE(jitter >= 0.0 && jitter < 1.0, "jitter must be in [0, 1)");
  if (distribution == ExecDistribution::kBimodal) {
    EUCON_REQUIRE(burst_prob > 0.0 && burst_prob < 1.0,
                  "burst_prob must be in (0, 1)");
    EUCON_REQUIRE(burst_factor > 1.0, "burst_factor must exceed 1");
    EUCON_REQUIRE(burst_prob * burst_factor < 1.0,
                  "burst_prob * burst_factor must stay below 1 (unit mean)");
  }
}

namespace {

double multiplier(const ExecModelParams& params, Rng& rng) {
  switch (params.distribution) {
    case ExecDistribution::kUniform:
      return params.jitter == 0.0  // eucon-lint: allow(float-equality)
                 ? 1.0
                 : rng.uniform(1.0 - params.jitter, 1.0 + params.jitter);
    case ExecDistribution::kExponential: {
      // Inverse transform; guard the open interval to avoid -log(0).
      const double u = std::max(rng.next_double(), 1e-12);
      return -std::log(u);
    }
    case ExecDistribution::kBimodal: {
      if (rng.next_double() < params.burst_prob) return params.burst_factor;
      return (1.0 - params.burst_prob * params.burst_factor) /
             (1.0 - params.burst_prob);
    }
  }
  return 1.0;
}

}  // namespace

Ticks draw_exec_time(const EtfProfile& profile, const ExecModelParams& params,
                     Rng& rng, double estimated_exec, Ticks t) {
  const double factor = profile.factor_at(t);
  const Ticks exec =
      units_to_ticks(estimated_exec * factor * multiplier(params, rng));
  return std::max<Ticks>(exec, 1);
}

}  // namespace eucon::rts
