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
#include <vector>

#include "common/annotations.h"
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
  // clock to `t`. `t` must not be in the past. Once every pool, heap and
  // FIFO has reached its high-water mark, this allocates nothing (the
  // opt-in trace log aside).
  void run_until(Ticks t) EUCON_REALTIME;
  void run_until_units(double t_units) { run_until(units_to_ticks(t_units)); }

  // Utilization of each processor over the window since the previous call
  // (busy time / window length); resets the window. Call at sampling-period
  // boundaries after run_until(boundary).
  std::vector<double> sample_utilizations();
  // The same into `u` (resized to one entry per processor), so a caller
  // that keeps `u` across periods allocates nothing.
  void sample_utilizations_into(std::vector<double>& u);

  // Requests new task rates. They are clamped to each task's
  // [rate_min, rate_max] and take effect after the feedback-lane delay:
  // priorities are refreshed and each task's next release is rescheduled
  // against its release guard. Must contain one rate per task, none of
  // them NaN (±inf clamps to the bounds). The request is copied into a
  // reused buffer, so once as many requests have been pending at once as
  // ever will be, this allocates nothing.
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
  std::size_t jobs_in_flight() const { return jobs_.in_flight(); }

  // Events run_until has popped so far, superseded task releases included:
  // the DES's work, a pure function of the spec, options and the calls
  // made, so it compares across hosts.
  std::uint64_t events_popped() const { return events_popped_; }

  // Times the release guard deferred a successor subtask past its
  // predecessor's completion (the guard's "not before one period since the
  // previous release" arm fired). Cumulative; the tracer records per-period
  // deltas.
  std::uint64_t release_guard_stalls() const { return release_guard_stalls_; }

 private:
  struct PendingRelease {  // release-guard queue entry for one subtask
    Ticks instance_release;
    Ticks abs_deadline;
  };

  // One subtask's release-guard FIFO: a ring in a power-of-two buffer that
  // doubles only when full, so its capacity never exceeds twice the
  // longest queue the subtask has had, and a standing backlog reuses it.
  class GuardFifo {
   public:
    void push(Ticks instance_release, Ticks abs_deadline);
    PendingRelease pop();

   private:
    std::vector<PendingRelease> ring_;
    std::size_t head_ = 0;
    std::size_t size_ = 0;
  };

  // What the hot path reads about one subtask, indexed by flat subtask
  // index (task i's chain occupies [task_base_[i], task_base_[i + 1])).
  struct SubtaskSlot {
    int task = 0;
    int processor = 0;          // follows migrate_subtask
    bool last = false;          // final subtask of its chain
    double estimated_exec = 0;  // c_ij
    // This subtask's share of d_i times n_i: times the task's period it
    // gives the subdeadline offset (even division: exactly one period).
    double deadline_scale = 0;
    // llround(deadline_scale * period): refreshed whenever the task's
    // period changes, so a release reads it instead of rounding.
    Ticks deadline_offset = 0;
    Ticks last_release = kNeverTicks;  // release guard: previous release
  };

  // Rate requests waiting for their kRateChange event, oldest first, in a
  // ring of num_tasks()-sized buffers in one vector. The lane delay is
  // constant and equal-time events pop in creation order, so rate changes
  // fire in request order: each one applies and frees the oldest buffer.
  // The ring doubles only when every buffer is pending.
  class RateRing {
   public:
    explicit RateRing(std::size_t width) : width_(width) {}
    void enqueue(const std::vector<double>& rates);
    const double* front() const;
    void pop();

   private:
    std::size_t width_;
    std::vector<double> buf_;  // capacity_ buffers of width_ doubles
    std::size_t capacity_ = 0;
    std::size_t head_ = 0;
    std::size_t size_ = 0;
  };

  void handle(const Event& e);
  void on_task_release(const Event& e);
  void on_subtask_release(const Event& e);
  void on_completion(const Event& e);
  void on_rate_change();

  // Sets task i's rate (and period) and recomputes its subtasks'
  // subdeadline offsets.
  void set_task_rate(std::size_t task, double rate);

  void release_job(std::size_t flat, Ticks instance_release, Ticks abs_deadline);
  void schedule_task_release(std::size_t task, Ticks not_before);

  SystemSpec spec_;
  SimOptions options_;
  ExecModelParams exec_params_;  // validated once, shared by every subtask
  Ticks sample_window_start_ = 0;
  Ticks now_ = 0;

  EventQueue queue_;
  JobPool jobs_;
  std::vector<Processor> processors_;
  DeadlineStats deadline_stats_;

  // Per-task state.
  std::vector<double> rates_;
  std::vector<Ticks> period_ticks_;
  // Seq of the task's pending periodic release; any other release event
  // popped for the task was superseded (rate change, suspension).
  std::vector<std::uint64_t> live_release_seq_;
  std::vector<bool> task_enabled_;
  std::vector<std::size_t> task_base_;  // m + 1 entries

  // Per-subtask state (flat index).
  std::vector<SubtaskSlot> subtasks_;
  std::vector<Rng> exec_rng_;  // one execution-time stream per subtask
  std::vector<GuardFifo> guard_;

  TraceLog trace_;

  RateRing pending_rates_;

  std::uint64_t next_job_id_ = 0;
  std::uint64_t release_guard_stalls_ = 0;
  std::uint64_t events_popped_ = 0;
};

}  // namespace eucon::rts
