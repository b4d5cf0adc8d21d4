#include "eucon/replication.h"

#include <cmath>

#include "common/check.h"
#include "common/stats.h"

namespace eucon {

ReplicatedResult run_replicated(const ExperimentConfig& config, int replicas,
                                std::uint64_t seed0,
                                std::optional<std::size_t> from_period,
                                std::size_t to) {
  EUCON_REQUIRE(valid_replica_count(replicas),
                "replication needs at least two runs");
  const std::size_t from = from_period.value_or(metrics::steady_state_from(
      static_cast<std::size_t>(config.num_periods)));
  const std::size_t n = static_cast<std::size_t>(config.spec.num_processors);

  std::vector<RunningStats> means(n), sds(n);
  std::vector<std::size_t> acceptable(n, 0);
  std::vector<double> min_mean(n, 1e9), max_mean(n, -1e9);
  RunningStats e2e, sub;

  for (int r = 0; r < replicas; ++r) {
    ExperimentConfig cfg = config;
    cfg.sim.seed = seed0 + static_cast<std::uint64_t>(r);
    const ExperimentResult res = run_experiment(cfg);
    for (std::size_t p = 0; p < n; ++p) {
      const auto a = metrics::acceptability(res, p, from, to);
      means[p].add(a.mean);
      sds[p].add(a.stddev);
      if (a.acceptable()) ++acceptable[p];
      min_mean[p] = std::min(min_mean[p], a.mean);
      max_mean[p] = std::max(max_mean[p], a.mean);
    }
    e2e.add(res.deadlines.e2e_miss_ratio());
    sub.add(res.deadlines.subtask_miss_ratio());
  }

  ReplicatedResult out;
  out.per_processor.resize(n);
  for (std::size_t p = 0; p < n; ++p) {
    auto& s = out.per_processor[p];
    s.replicas = static_cast<std::size_t>(replicas);
    s.mean_of_means = means[p].mean();
    // Normal approximation: 1.96 * s / sqrt(n) on the replica means.
    s.ci95_halfwidth = 1.96 * std::sqrt(means[p].sample_variance() /
                                        static_cast<double>(replicas));
    s.mean_of_stddevs = sds[p].mean();
    s.min_mean = min_mean[p];
    s.max_mean = max_mean[p];
    s.acceptable_runs = acceptable[p];
  }
  out.mean_e2e_miss = e2e.mean();
  out.mean_subtask_miss = sub.mean();
  return out;
}

}  // namespace eucon
