// Event-driven simulator of a distributed real-time system running
// end-to-end tasks (the "DRE System" box of the paper's Figure 1).
//
// Per processor: preemptive rate-monotonic scheduling. Across processors:
// the release-guard synchronization protocol enforces precedence while
// keeping every subtask periodic at its task's current rate. Utilization
// monitors integrate exact busy time per sampling window; rate modulators
// apply controller outputs (optionally after a feedback-lane delay).
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "common/ticks.h"
#include "rts/deadline_stats.h"
#include "rts/etf.h"
#include "rts/event.h"
#include "rts/job.h"
#include "rts/processor.h"
#include "rts/spec.h"
#include "rts/trace.h"

namespace eucon::rts {

// Per-processor scheduling policy.
enum class SchedulingPolicy {
  kRateMonotonic,  // fixed priority by current task period (the paper)
  kEdf,            // dynamic priority by absolute subdeadline
};

// How a task's end-to-end deadline d_i = n_i / r_i is divided into
// subdeadlines (paper §7.1 uses the even division; [7] proposes others).
enum class SubdeadlinePolicy {
  kEvenByCount,          // each subtask gets d_i / n_i (= one period)
  kProportionalToExec,   // subtask j gets d_i * c_ij / sum_l c_il
};

struct SimOptions {
  std::uint64_t seed = 1;
  // Half-width of the unit-mean uniform execution-time jitter. 0 makes
  // execution times deterministic (= etf(t) * c_ij). Only used with
  // ExecDistribution::kUniform.
  double jitter = 0.0;
  // Shape of the per-job variation (kUniform by default); kExponential and
  // kBimodal configure heavier-tailed service times via `exec_params`.
  ExecDistribution exec_distribution = ExecDistribution::kUniform;
  double burst_prob = 0.1;    // kBimodal
  double burst_factor = 3.0;  // kBimodal
  EtfProfile etf = EtfProfile::constant(1.0);
  // One-way delay of the feedback lanes in time units: rate vectors handed
  // to set_rates() become effective after this delay. The paper assumes 0.
  double feedback_lane_delay = 0.0;
  SchedulingPolicy policy = SchedulingPolicy::kRateMonotonic;
  SubdeadlinePolicy subdeadline_policy = SubdeadlinePolicy::kEvenByCount;
  // Record every scheduling decision (release/start/preempt/resume/
  // completion) in an in-memory trace, readable via Simulator::trace().
  bool enable_trace = false;
};

class Simulator {
 public:
  Simulator(SystemSpec spec, SimOptions options);
  ~Simulator();

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  // Processes all events strictly before `t` (ticks), then advances the
  // clock to `t`. `t` must not be in the past.
  void run_until(Ticks t);
  void run_until_units(double t_units) { run_until(units_to_ticks(t_units)); }

  // Utilization of each processor over the window since the previous call
  // (busy time / window length); resets the window. Call at sampling-period
  // boundaries after run_until(boundary).
  std::vector<double> sample_utilizations();

  // Requests new task rates. They are clamped to each task's
  // [rate_min, rate_max] and take effect after the feedback-lane delay:
  // priorities are refreshed and each task's next release is rescheduled
  // against its release guard. Must contain one rate per task.
  void set_rates(const std::vector<double>& rates);

  Ticks now() const { return now_; }
  double now_units() const { return ticks_to_units(now_); }
  const SystemSpec& spec() const { return spec_; }
  std::vector<double> current_rates() const { return rates_; }
  const DeadlineStats& deadline_stats() const { return deadline_stats_; }
  double execution_time_factor_now() const;

  // The execution trace (empty unless SimOptions::enable_trace).
  const TraceLog& trace() const { return trace_; }

  // Suspends / resumes a task (admission-control actuator, §6.2): a
  // suspended task releases no new instances; in-flight jobs finish.
  void set_task_enabled(int task, bool enabled);
  bool task_enabled(int task) const;

  // Moves a subtask to another processor (task-reallocation actuator,
  // §6.2): jobs released from now on run on `new_processor`; in-flight
  // jobs finish where they started. Timing state (release guard, rates)
  // is unaffected.
  void migrate_subtask(int task, int subtask, int new_processor);

  // Injects a burst of highest-priority work on a processor at the current
  // time (priority key 0 outranks every task under both policies). Models
  // the controller's own execution when it shares a processor with
  // applications (§4), or any other OS/middleware overhead. The burst is
  // accounted in that processor's utilization like any job.
  void inject_overhead(int processor, double exec_units);

  // Number of jobs released so far / still in flight (diagnostics).
  std::uint64_t jobs_released() const { return next_job_id_; }
  std::size_t jobs_in_flight() const { return jobs_.size(); }

  // Times the release guard deferred a successor subtask past its
  // predecessor's completion (the guard's "not before one period since the
  // previous release" arm fired). Cumulative; the tracer records per-period
  // deltas.
  std::uint64_t release_guard_stalls() const { return release_guard_stalls_; }

 private:
  struct PendingRelease {  // release-guard queue entry for one subtask
    std::uint64_t instance;
    Ticks instance_release;
    Ticks abs_deadline;
  };

  void handle(const Event& e);
  void on_task_release(const Event& e);
  void on_subtask_release(const Event& e);
  void on_completion(const Event& e);
  void on_rate_change();

  Job* make_job(int task, int subtask, std::uint64_t instance,
                Ticks instance_release, Ticks abs_deadline, Ticks release_time);
  void complete_job(Job* job, Ticks now);
  Ticks period_ticks(int task) const { return period_ticks_[static_cast<std::size_t>(task)]; }
  int subtask_index(int task, int subtask) const;
  Ticks priority_key_for(const Job& job) const;
  void schedule_task_release(int task, Ticks not_before);

  SystemSpec spec_;
  SimOptions options_;
  Ticks sample_window_start_ = 0;
  Ticks now_ = 0;

  EventQueue queue_;
  std::vector<Processor> processors_;
  std::vector<std::unique_ptr<ExecutionTimeModel>> exec_models_;  // per subtask
  DeadlineStats deadline_stats_;

  // Per-task state.
  std::vector<double> rates_;
  std::vector<Ticks> period_ticks_;
  std::vector<std::uint64_t> release_gen_;
  std::vector<std::uint64_t> next_instance_;
  std::vector<bool> task_enabled_;

  // Per-subtask state (flattened; see subtask_index).
  std::vector<Ticks> last_release_;          // kNeverTicks until first release
  std::vector<std::deque<PendingRelease>> pending_;  // release-guard FIFO
  std::vector<std::size_t> subtask_base_;    // task -> first flat index
  std::vector<double> deadline_fraction_;    // share of d_i per subtask

  TraceLog trace_;

  // Rate vectors waiting for their kRateChange event, oldest first. The
  // lane delay is constant and equal-time events pop in creation order, so
  // rate changes fire in request order: each one applies and frees the
  // front entry.
  std::deque<std::vector<double>> pending_rate_sets_;

  std::unordered_map<std::uint64_t, std::unique_ptr<Job>> jobs_;
  std::uint64_t next_job_id_ = 0;
  std::uint64_t release_guard_stalls_ = 0;
};

}  // namespace eucon::rts
