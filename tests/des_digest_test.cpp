// Event-order digest of the discrete-event simulator over a seeded panel.
//
// The golden traces run the full closed loop on a few RMS configurations
// with uniform jitter, a constant etf and even subdeadlines. This panel
// drives the Simulator directly through its public API over everything
// else it can do: EDF, heavy-tailed and bimodal service times,
// proportional subdeadlines, etf steps, feedback-lane delay, suspension
// and resumption, subtask migration, injected overhead and new rates
// every period, plus a chain_cluster task set and an aligned task set on
// which most events tie in time. Each configuration folds every
// scheduling-trace record, utilization sample, applied rate and counter
// into one 64-bit digest, checked against tests/golden/des_digest.txt.
// Any change to which events fire, or in which order, changes a digest.
//
// After an intentional change to simulator semantics, regenerate with
// tools/regen_golden.sh and review the diff.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "eucon/workloads.h"
#include "rts/simulator.h"

namespace eucon::rts {
namespace {

// FNV-1a over 64-bit words.
class Digest {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xffu;
      h_ *= 0x100000001b3ULL;
    }
  }
  void add(std::int64_t v) { add(static_cast<std::uint64_t>(v)); }
  void add(int v) { add(static_cast<std::uint64_t>(static_cast<std::int64_t>(v))); }
  void add(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    add(bits);
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

struct DigestCase {
  std::string name;
  SystemSpec spec;
  SimOptions opts;
  int periods = 0;
  // Re-send the initial rates (task 2 alternating with period 500) instead
  // of the random walk, so periods keep dividing Ts and events tie.
  bool aligned_rates = false;
};

constexpr int kPeriods = 60;
constexpr double kTs = 1000.0;

// Folds the trace records appended since `*seen` into the digest.
void fold_trace(const Simulator& sim, std::size_t* seen, Digest& d) {
  const auto& recs = sim.trace().records();
  for (; *seen < recs.size(); ++*seen) {
    const TraceRecord& r = recs[*seen];
    d.add(r.time);
    d.add(static_cast<int>(r.kind));
    d.add(r.job_id);
    d.add(r.task);
    d.add(r.subtask);
    d.add(r.processor);
  }
}

void fold_counters(const Simulator& sim, Digest& d) {
  d.add(sim.jobs_released());
  d.add(static_cast<std::uint64_t>(sim.jobs_in_flight()));
  d.add(sim.release_guard_stalls());
  const DeadlineStats& ds = sim.deadline_stats();
  for (std::size_t i = 0; i < ds.num_tasks(); ++i) {
    const TaskDeadlineCounters& c = ds.task(i);
    d.add(c.instances_released);
    d.add(c.instances_completed);
    d.add(c.e2e_misses);
    d.add(c.subtask_jobs_completed);
    d.add(c.subtask_misses);
  }
}

// Drives one configuration for `c.periods` sampling periods and returns
// its digest. Every actuator is exercised on a fixed schedule; the rates
// are a deterministic walk around the initial rates that sometimes leaves
// the bounds (and once requests +inf) so clamping is covered.
std::uint64_t run_case(const DigestCase& c) {
  Simulator sim(c.spec, c.opts);
  Rng walk(c.opts.seed ^ 0x5eedULL);
  const std::size_t m = c.spec.num_tasks();
  const int n = c.spec.num_processors;
  std::vector<double> rates(m);
  Digest d;
  std::size_t seen = 0;
  const Ticks ts = units_to_ticks(kTs);
  for (int k = 1; k <= c.periods; ++k) {
    sim.run_until(static_cast<Ticks>(k) * ts);
    fold_trace(sim, &seen, d);
    for (double u : sim.sample_utilizations()) d.add(u);
    for (double r : sim.current_rates()) d.add(r);
    fold_counters(sim, d);

    if (k == 4) sim.set_task_enabled(0, false);
    if (k == 9) sim.set_task_enabled(0, true);
    if (k == 6 && m > 1) {
      const auto& chain = c.spec.tasks[1].subtasks;
      const int last = eucon::narrow<int>(chain.size()) - 1;
      sim.migrate_subtask(1, last, (chain.back().processor + 1) % n);
    }
    if (k == 14 && m > 1) {
      const auto& chain = c.spec.tasks[1].subtasks;
      sim.migrate_subtask(1, eucon::narrow<int>(chain.size()) - 1,
                          chain.back().processor);
    }
    if (k % 5 == 2) sim.inject_overhead(k % n, 7.5);
    if (k % 7 == 3) sim.inject_overhead((k + 1) % n, 0.25);

    for (std::size_t i = 0; i < m; ++i) {
      const TaskSpec& t = c.spec.tasks[i];
      if (c.aligned_rates) {
        rates[i] = i == 2 && k % 10 >= 5 ? 1.0 / 500.0 : t.initial_rate;
        continue;
      }
      rates[i] = t.initial_rate * walk.uniform(0.6, 1.6);
      if (walk.next_double() < 0.05) rates[i] = t.rate_max * 1.5;
      if (walk.next_double() < 0.05) rates[i] = t.rate_min * 0.5;
    }
    if (k == 10 && !c.aligned_rates)
      rates[0] = std::numeric_limits<double>::infinity();
    sim.set_rates(rates);
  }
  fold_trace(sim, &seen, d);
  fold_counters(sim, d);
  return d.value();
}

// Integer execution times and periods that divide Ts, with no jitter: job
// completions, releases and rate changes land on the same ticks, so the
// (time, seq) tie-break decides the order of most events.
SystemSpec aligned_spec() {
  SystemSpec s;
  s.num_processors = 2;
  const auto task = [](std::vector<SubtaskSpec> chain, double period) {
    TaskSpec t;
    t.name = "aligned";
    t.subtasks = std::move(chain);
    t.initial_rate = 1.0 / period;
    t.rate_min = 1.0 / 1000.0;
    t.rate_max = 1.0 / 50.0;
    return t;
  };
  s.tasks = {task({{0, 20.0}, {1, 30.0}}, 100.0),
             task({{1, 25.0}, {0, 25.0}}, 200.0),
             task({{0, 50.0}}, 250.0),
             task({{1, 40.0}, {0, 10.0}, {1, 10.0}}, 500.0)};
  return s;
}

std::vector<DigestCase> panel() {
  std::vector<DigestCase> cases;
  const SchedulingPolicy policies[] = {SchedulingPolicy::kRateMonotonic,
                                       SchedulingPolicy::kEdf};
  const ExecDistribution dists[] = {ExecDistribution::kUniform,
                                    ExecDistribution::kExponential,
                                    ExecDistribution::kBimodal};
  const SubdeadlinePolicy splits[] = {SubdeadlinePolicy::kEvenByCount,
                                      SubdeadlinePolicy::kProportionalToExec};
  int index = 0;
  for (const std::uint64_t set : {3ULL, 8ULL, 21ULL}) {
    workloads::RandomWorkloadParams wp;
    wp.num_processors = 4;
    wp.num_tasks = 8;
    const SystemSpec spec = workloads::random_workload(wp, set);
    for (const SchedulingPolicy policy : policies) {
      for (const ExecDistribution dist : dists) {
        for (const SubdeadlinePolicy split : splits) {
          DigestCase c;
          c.spec = spec;
          c.periods = kPeriods;
          c.opts.seed = 100 + static_cast<std::uint64_t>(index);
          c.opts.jitter = 0.2;
          c.opts.exec_distribution = dist;
          c.opts.policy = policy;
          c.opts.subdeadline_policy = split;
          c.opts.enable_trace = true;
          // Alternate the etf step profile and the lane delay so each
          // combination of the two appears across the panel.
          if (index % 2 == 0)
            c.opts.etf = EtfProfile::steps(
                {{0.0, 0.7}, {6000.0, 1.3}, {15000.0, 0.9}});
          c.opts.feedback_lane_delay = (index / 2) % 2 == 0 ? 0.0 : 250.0;
          std::ostringstream name;
          name << "set" << set
               << (policy == SchedulingPolicy::kEdf ? "_edf" : "_rms")
               << (dist == ExecDistribution::kUniform       ? "_uniform"
                   : dist == ExecDistribution::kExponential ? "_exponential"
                                                            : "_bimodal")
               << (split == SubdeadlinePolicy::kEvenByCount ? "_even"
                                                            : "_proportional")
               << (index % 2 == 0 ? "_etfstep" : "_etfconst")
               << "_lane" << c.opts.feedback_lane_delay;
          c.name = name.str();
          cases.push_back(std::move(c));
          ++index;
        }
      }
    }
  }
  workloads::ChainClusterParams cp;
  cp.num_processors = 24;
  for (const SchedulingPolicy policy : policies) {
    DigestCase c;
    c.spec = workloads::chain_cluster(cp, 4100);
    c.periods = kPeriods;
    c.opts.seed = 900;
    c.opts.jitter = 0.1;
    c.opts.policy = policy;
    c.opts.enable_trace = true;
    c.opts.feedback_lane_delay = 250.0;
    c.name = policy == SchedulingPolicy::kEdf ? "chain_cluster24_edf"
                                              : "chain_cluster24_rms";
    cases.push_back(std::move(c));
  }
  for (const double lane : {0.0, 250.0}) {
    for (const SchedulingPolicy policy : policies) {
      DigestCase c;
      c.spec = aligned_spec();
      c.periods = kPeriods;
      c.aligned_rates = true;
      c.opts.seed = 7;
      c.opts.policy = policy;
      c.opts.enable_trace = true;
      c.opts.feedback_lane_delay = lane;
      std::ostringstream name;
      name << "aligned" << (policy == SchedulingPolicy::kEdf ? "_edf" : "_rms")
           << "_lane" << lane;
      c.name = name.str();
      cases.push_back(std::move(c));
    }
  }
  return cases;
}

std::string render_digests() {
  std::ostringstream out;
  for (const DigestCase& c : panel())
    out << c.name << ' ' << std::hex << std::setw(16) << std::setfill('0')
        << run_case(c) << std::dec << '\n';
  return out.str();
}

TEST(DesDigestTest, PanelMatchesGoldenDigests) {
  const std::string produced = render_digests();
  const std::string path = std::string(EUCON_GOLDEN_DIR) + "/des_digest.txt";

  if (std::getenv("EUCON_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << produced;
    out.close();
    ASSERT_TRUE(out.good()) << "failed writing " << path;
    GTEST_SKIP() << "regenerated " << path;
  }

  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden file " << path
                         << " (run tools/regen_golden.sh)";
  std::ostringstream expected;
  expected << in.rdbuf();
  std::istringstream a(expected.str()), b(produced);
  std::string la, lb;
  while (true) {
    const bool more_a = static_cast<bool>(std::getline(a, la));
    const bool more_b = static_cast<bool>(std::getline(b, lb));
    if (!more_a && !more_b) break;
    ASSERT_EQ(more_a ? la : "<eof>", more_b ? lb : "<eof>")
        << "DES digest differs from " << path
        << "; if the change is intentional, run tools/regen_golden.sh "
           "and review the diff.";
  }
}

}  // namespace
}  // namespace eucon::rts
