// The closed-loop experiment runner: wires a utilization controller to the
// simulated DRE system exactly as in the paper's Figure 1 and records the
// per-period trace the evaluation figures are drawn from.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "control/admission.h"
#include "control/controller.h"
#include "control/hierarchical.h"
#include "control/reallocation.h"
#include "control/uncoordinated.h"
#include "control/mpc.h"
#include "control/pid.h"
#include "eucon/faults.h"
#include "linalg/vector.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "rts/deadline_stats.h"
#include "rts/simulator.h"
#include "rts/spec.h"

namespace eucon {

enum class ControllerKind {
  kEucon,          // centralized MPC (the paper)
  kOpen,           // open-loop baseline (§7.1)
  kPid,            // per-processor PID baseline (§6.1 ablation)
  kDecentralized,  // DEUCON: one-processor shards, Jacobi sweep (the
                   // paper's future work)
  kAdaptive,       // MPC with on-line gain estimation (self-tuning EUCON)
  kUncoordinated,  // independent per-processor FCS (the §2 strawman)
  kHierarchical,   // HIER: contiguous shards, Gauss–Seidel sweep (cluster
                   // scale)
};

const char* controller_kind_name(ControllerKind kind);

struct ExperimentConfig {
  rts::SystemSpec spec;
  ControllerKind controller = ControllerKind::kEucon;
  control::MpcParams mpc;            // used by kEucon/kDecentralized/kAdaptive/kHierarchical
  control::PidParams pid;            // used by kPid
  control::UncoordinatedParams fcs;  // used by kUncoordinated
  control::HierarchicalParams hier;  // used by kHierarchical
  linalg::Vector set_points;         // empty = Liu–Layland bounds (eq. 13)
  double sampling_period = 1000.0;   // Ts, in time units (Table 2)
  int num_periods = 300;             // simulation length in sampling periods
  rts::SimOptions sim;               // seed, jitter, etf profile, lane delay

  // Probability that a processor's utilization report is lost in a given
  // sampling period (failure injection on the feedback lanes); the
  // controller then sees that processor's last delivered value.
  double report_loss_probability = 0.0;

  // What the lanes report before the first delivery: empty (default) means
  // the per-processor set points B_i — a lost early report then reads as
  // "on target" rather than "idle" (the cold-start phantom-idle bug, where
  // last-delivered started at 0 and a period-1 loss slammed rates toward
  // R_max on exactly the processor the controller knew least about). Size
  // must match the processor count when non-empty.
  linalg::Vector lane_initial;

  // Scripted fault injection beyond i.i.d. report loss (eucon/faults.h):
  // lane outage bursts, actuation loss/delay, overload spikes, controller
  // blackouts. Empty plan = nothing injected, zero hot-path cost.
  faults::FaultPlan faults;
  // Graceful degradation: the controller watchdog policy used during
  // blackouts and the per-lane staleness fallback. Policies other than
  // kNone (and stale_limit > 0) require ControllerKind::kEucon.
  faults::DegradeConfig degrade;

  // Admission control (§6.2's alternative adaptation mechanism). Only
  // meaningful with ControllerKind::kEucon: the governor suspends /
  // re-admits tasks in both the simulator and the controller model.
  bool enable_admission_control = false;
  control::AdmissionParams admission;

  // Task reallocation (§6.2's other adaptation mechanism). Only meaningful
  // with ControllerKind::kEucon; moves are applied to the simulator and
  // the controller's allocation matrix. The set points stay as configured
  // (a deployment using reallocation chooses them explicitly rather than
  // deriving them from the — now changing — per-processor subtask counts).
  bool enable_reallocation = false;
  control::ReallocationParams reallocation;

  // Controller placement (§4): when controller_host >= 0, every sampling
  // period injects `controller_overhead` time units of highest-priority
  // work on that processor — the controller "sharing a processor with some
  // applications". -1 models a dedicated controller processor (default).
  int controller_host = -1;
  double controller_overhead = 0.0;

  // Optional per-period hook, called after the controller update of period
  // k (1-based); can mutate the controller (e.g. change set points online).
  std::function<void(int k, control::Controller&)> on_period;

  // ---- Observability (docs/observability.md) ----
  // Label recorded in the trace header (run_batch fills it from the spec
  // name; the CLI from the workload/spec-file name).
  std::string run_name;
  // Structured per-period trace sink. Non-owning: the sink must outlive
  // the run, and must not be shared between concurrent runs (per-run
  // confinement, like FeedbackLanes). Null = tracing off; the disabled
  // path allocates nothing.
  obs::Sink* trace_sink = nullptr;
  // Counter/timer registry. Non-owning; a Registry is thread-safe, so one
  // instance may be shared by every run of a batch. Null = metrics off.
  obs::Registry* metrics = nullptr;
};

struct SampleRecord {
  int k = 0;                   // sampling-period index, 1-based
  std::vector<double> u;       // measured utilization per processor
  std::vector<double> rates;   // task rates applied for the next period
  int enabled_tasks = 0;       // tasks admitted during this period
};

struct ExperimentResult {
  std::vector<SampleRecord> trace;
  linalg::Vector set_points;
  rts::DeadlineStats deadlines{0};
  // The run's totals: the record a trace ends with, and the one the
  // registry counters are written from. Filled with or without a sink.
  obs::RunSummary summary;
  std::uint64_t admission_suspensions = 0;
  std::uint64_t admission_readmissions = 0;
  std::vector<control::Move> reallocations;  // executed migrations, in order
  rts::TraceLog trace_log;  // populated when sim.enable_trace is set

  // Series of u_p(k) for processor p.
  std::vector<double> utilization_series(std::size_t processor) const;
  std::vector<double> rate_series(std::size_t task) const;
};

ExperimentResult run_experiment(const ExperimentConfig& config);

// Builds the controller an experiment would use, over a plant model built
// from the config's spec in CSR (exposed for tests and benchmarks).
std::unique_ptr<control::Controller> make_controller(
    const ExperimentConfig& config);

// ---------------------------------------------------------------------------
// Batch engine: fans independent experiment runs across a worker pool.
// ---------------------------------------------------------------------------

// One run of a batch: a label (for reports/benches) plus the full config.
struct ExperimentSpec {
  std::string name;
  ExperimentConfig config;
};

struct BatchOptions {
  // Worker threads; 0 = one per hardware thread. A single worker still goes
  // through the pool (useful for pool-path testing).
  std::size_t num_workers = 0;
  // Run on the calling thread with no pool at all — the determinism
  // baseline the parallel path is checked against.
  bool serial = false;
  // When true, every run's sim.seed is overridden with an independent
  // stream derived from (seed_base, run index) via SplitMix64 — runs never
  // share RNG state, and the assignment does not depend on worker count or
  // scheduling order. When false (default) each config's own seed is used,
  // so existing single-run setups batch without behavior change.
  bool derive_seeds = false;
  std::uint64_t seed_base = 0;

  // Progress hook for long sweeps: called once per completed run with
  // (completed, total). Calls are serialized under an internal mutex, so
  // `completed` is strictly increasing, 1..total — but they arrive on
  // whichever worker finished the run, and the internal lock is held for
  // the duration of the call: keep the callback cheap, and never submit
  // more batch work from inside it.
  std::function<void(std::size_t completed, std::size_t total)> on_progress;

  // ---- Observability pass-through (docs/observability.md) ----
  // Shared counter/timer registry applied to every run whose config does
  // not already carry one. Thread-safe; totals accumulate across the whole
  // batch regardless of worker count.
  obs::Registry* metrics = nullptr;
  // When non-empty, every run without its own trace_sink writes a JSONL
  // trace to `<trace_dir>/run-NNNN[-name].jsonl` (the directory is
  // created). File assignment depends only on the run index and spec name,
  // so serial and pooled executions produce byte-identical files.
  std::string trace_dir;
};

// The trace file name run_batch assigns to run `run_index` (exposed so the
// determinism tests and sweep tooling can locate per-run traces).
std::string batch_trace_file_name(std::size_t run_index,
                                  const std::string& name);

// The seed the batch engine assigns to run `run_index` when derive_seeds is
// set (exposed so tests and benches can predict it).
std::uint64_t batch_run_seed(std::uint64_t seed_base, std::size_t run_index);

// Runs every spec and returns results in spec order. Runs are independent:
// each gets its own simulator, controller and RNG streams, so the parallel
// path is bit-identical to the serial path for the same specs. The first
// exception thrown by a run is rethrown here after all workers finish.
std::vector<ExperimentResult> run_batch(const std::vector<ExperimentSpec>& specs,
                                        const BatchOptions& options = {});

// Convenience overload for unnamed configs.
std::vector<ExperimentResult> run_batch(
    const std::vector<ExperimentConfig>& configs,
    const BatchOptions& options = {});

}  // namespace eucon
