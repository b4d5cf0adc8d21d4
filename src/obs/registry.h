// Counter / gauge / timer registry — the metrics half of the observability
// layer (docs/observability.md).
//
// A Registry is a named bag of monotone counters, last-value gauges, and
// duration accumulators. It is thread-safe by construction (one internal
// eucon::Mutex, every map annotated EUCON_GUARDED_BY), so a single instance
// can be shared across run_batch workers: each run adds its tallies and the
// caller reads one consistent snapshot at the end.
//
// Naming rules (enforced socially, documented in docs/observability.md):
// lowercase `<area>.<noun>` with `_` inside words — e.g.
// `experiment.lost_reports`, `mpc.qp_iterations`, `sim.release_guard_stalls`.
// Counters count events (monotone), gauges hold the last written value,
// timers accumulate wall-clock durations recorded in nanoseconds.
//
// Cost model: every operation is one mutex acquisition plus one map lookup —
// fine at per-sampling-period granularity, and exactly zero when the caller
// holds no Registry (every instrumentation site is behind a null check).
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>

#include "common/annotations.h"
#include "common/mutex.h"

namespace eucon::obs {

// Aggregate of the duration samples recorded under one timer name.
struct TimerStats {
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t min_ns = 0;
  std::uint64_t max_ns = 0;

  double mean_us() const {
    return count == 0 ? 0.0
                      : static_cast<double>(total_ns) /
                            (1000.0 * static_cast<double>(count));
  }
};

// A point-in-time copy of everything a Registry holds, with deterministic
// (sorted) iteration order for reports and tests.
struct Snapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, TimerStats> timers;
};

class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  // The three mutating entry points run on EUCON_REALTIME paths (the
  // controller's per-period instrumentation). Both hatches are deliberate,
  // documented costs, not oversights: the internal eucon::Mutex is
  // uncontended-fast and held for one map operation (see the cost model
  // above), and the map node allocation happens only the first time a name
  // is seen — steady-state increments hit an existing node.

  // Every entry point also carries EUCON_EXCLUDES(mu_): calling a Registry
  // method while already holding its lock (possible only from inside this
  // class) would self-deadlock. The annotation states that contract for
  // clang's -Wthread-safety.

  // Counters: monotone event tallies.
  void add(std::string_view name, std::uint64_t delta = 1) EUCON_REALTIME
      EUCON_EXCLUDES(mu_)
          EUCON_BLOCK_OK("one uncontended map-op mutex hold")
              EUCON_ALLOC_OK("map node allocated on first use of a name only");
  std::uint64_t counter(std::string_view name) const EUCON_EXCLUDES(mu_);

  // Gauges: last written value wins (also across threads; a gauge shared
  // between workers records *some* last value, use counters for totals).
  void set_gauge(std::string_view name, double value) EUCON_REALTIME
      EUCON_EXCLUDES(mu_)
          EUCON_BLOCK_OK("one uncontended map-op mutex hold")
              EUCON_ALLOC_OK("map node allocated on first use of a name only");
  double gauge(std::string_view name) const
      EUCON_EXCLUDES(mu_);  // 0.0 when never written

  // Timers: one duration sample per call.
  void record_duration_ns(std::string_view name, std::uint64_t ns)
      EUCON_REALTIME EUCON_EXCLUDES(mu_)
          EUCON_BLOCK_OK("one uncontended map-op mutex hold")
              EUCON_ALLOC_OK("map node allocated on first use of a name only");
  TimerStats timer(std::string_view name) const
      EUCON_EXCLUDES(mu_);  // zeroed when never written

  Snapshot snapshot() const EUCON_EXCLUDES(mu_);

  // Drops every counter/gauge/timer (between bench sections). The hatch
  // mirrors the mutating entry points above: one uncontended mutex hold.
  // (The realtime call graph also reaches this node conservatively through
  // any `x.clear()` member call, e.g. on a std::vector.)
  void clear() EUCON_EXCLUDES(mu_)
      EUCON_BLOCK_OK("one uncontended map-op mutex hold");

 private:
  mutable Mutex mu_;
  std::map<std::string, std::uint64_t, std::less<>> counters_
      EUCON_GUARDED_BY(mu_);
  std::map<std::string, double, std::less<>> gauges_ EUCON_GUARDED_BY(mu_);
  std::map<std::string, TimerStats, std::less<>> timers_ EUCON_GUARDED_BY(mu_);
};

// RAII wall-clock timer: records the scope's duration under `name` at
// destruction. A null registry skips the clock reads entirely, so an
// un-instrumented hot path pays two pointer tests and nothing else.
class ScopedTimer {
 public:
  ScopedTimer(Registry* registry, const char* name)
      : registry_(registry), name_(name) {
    if (registry_ != nullptr) start_ = std::chrono::steady_clock::now();
  }
  // The destructor sits at the end of every OBS_TIMED scope on the control
  // path; the steady_clock read is the timer's entire point (it measures
  // wall time, it does not steer the simulation), hence the hatch.
  ~ScopedTimer() EUCON_REALTIME
      EUCON_NONDET_OK("steady_clock read is the measurement itself") {
    if (registry_ != nullptr) {
      const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                          std::chrono::steady_clock::now() - start_)
                          .count();
      registry_->record_duration_ns(name_, ns < 0 ? 0u
                                                  : static_cast<std::uint64_t>(ns));
    }
  }

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Registry* registry_;
  const char* name_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace eucon::obs

// Scoped-timer instrumentation point. `registry` is an obs::Registry*
// (null = disabled); `name` a string literal.
#define OBS_TIMED_CONCAT2(a, b) a##b
#define OBS_TIMED_CONCAT(a, b) OBS_TIMED_CONCAT2(a, b)
#define OBS_TIMED(registry, name)                                     \
  const ::eucon::obs::ScopedTimer OBS_TIMED_CONCAT(obs_scoped_timer_, \
                                                   __LINE__)((registry), (name))
