// Replicated experiments: the same configuration across independent seeds,
// with per-processor aggregate statistics and normal-approximation
// confidence intervals.
//
// The paper reports single runs; replication quantifies how much of any
// observed difference is seed noise (our EXPERIMENTS.md comparisons and
// the scaling bench use it for exactly that).
#pragma once

#include <optional>
#include <vector>

#include "eucon/experiment.h"
#include "eucon/metrics.h"

namespace eucon {

struct ReplicatedStats {
  // Across replicas: distribution of the windowed mean utilization and of
  // the windowed standard deviation.
  double mean_of_means = 0.0;
  double ci95_halfwidth = 0.0;  // for mean_of_means
  double mean_of_stddevs = 0.0;
  double min_mean = 0.0;
  double max_mean = 0.0;
  std::size_t acceptable_runs = 0;  // paper criterion per replica
  std::size_t replicas = 0;
};

struct ReplicatedResult {
  std::vector<ReplicatedStats> per_processor;
  // Replica-level deadline miss ratios.
  double mean_e2e_miss = 0.0;
  double mean_subtask_miss = 0.0;
};

// Statistics over fewer than two replicas are meaningless (the CI half-width
// divides by replicas - 1). run_replicated EUCON_REQUIREs this; callers with
// user-supplied counts (tools/eucon_sim --replicas) should check first and
// report a friendly one-line error instead of the requirement's file:line.
inline bool valid_replica_count(int replicas) { return replicas >= 2; }

// Runs `replicas` copies of `config` with seeds seed0, seed0+1, … and
// aggregates the steady-state window [from, to) (to = 0 -> end of trace;
// no `from` -> metrics::steady_state_from(config.num_periods)).
ReplicatedResult run_replicated(const ExperimentConfig& config, int replicas,
                                std::uint64_t seed0 = 1,
                                std::optional<std::size_t> from = std::nullopt,
                                std::size_t to = 0);

}  // namespace eucon
