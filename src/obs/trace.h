// Structured per-period event tracing — the trajectory half of the
// observability layer (docs/observability.md).
//
// One experiment run emits a header record, one record per sampling
// period, and a totals record, through an ObsSink. The JSONL encoding is
// deterministic byte for byte (keys in fixed order, doubles printed with
// the shortest round-trip form CsvWriter::format_double uses), which is
// what makes the golden-trace regression suite (tests/golden/) and the
// serial-vs-pooled determinism test possible.
//
// Thread contract: a Sink instance is per-run state, like FeedbackLanes —
// thread-compatible, not thread-safe. run_batch gives every run its own
// FileSink; nothing is shared between workers.
#pragma once

#include <cstdint>
#include <fstream>
#include <ostream>
#include <string>
#include <vector>

namespace eucon::obs {

// Identifies a run at the head of its trace.
struct RunInfo {
  std::string name;        // batch label / CLI workload ("" when unnamed)
  std::string controller;  // controller_kind_name() of the run
  std::uint64_t seed = 0;
  int num_periods = 0;
  std::size_t num_processors = 0;
  std::size_t num_tasks = 0;
  std::vector<double> set_points;
};

// Everything the closed loop knows about one sampling period. QP fields
// hold their defaults (iterations -1) for controllers without a QP.
struct PeriodRecord {
  int k = 0;               // sampling-period index, 1-based
  double time_units = 0.0; // simulation clock at the sample, time units
  std::vector<double> u;       // measured utilization per processor
  std::vector<double> u_seen;  // after the (possibly lossy) feedback lanes
  std::vector<double> rates;   // rates applied for the next period
  std::vector<double> delta_r; // rate change actually applied this period
  int enabled_tasks = 0;
  std::uint64_t lost_reports = 0;          // lane losses this period
  std::uint64_t release_guard_stalls = 0;  // deferred releases this period
  int qp_iterations = -1;      // dual adds plus drops (-1: no QP controller)
  bool qp_fast_path = false;   // cached-QR unconstrained minimizer accepted
  bool qp_fallback = false;    // infeasible instance: util rows dropped
  std::string qp_status;       // "optimal" | "infeasible" | "max_iterations"
  std::vector<std::size_t> qp_active_set;  // active rows, ascending

  // Fault-injection fields (eucon/faults.h). Emitted only when
  // faults_active is set, so unfaulted traces — including the pre-existing
  // golden files — keep their exact bytes.
  bool faults_active = false;
  std::string fault_mode;                  // "normal" | "blackout"
  std::uint64_t forced_losses = 0;         // injector-forced lane losses
  std::uint64_t actuation_lost = 0;        // rate commands dropped this period
  std::uint64_t overload_injections = 0;   // overload spikes applied
  int tracked_processors = 0;              // size of the MPC tracked set
  std::vector<std::size_t> staleness;      // consecutive losses per lane
};

// Monotone totals at the end of a run; the invariant tests check these
// against the sum of the per-period records. run_experiment keeps this
// record as ExperimentResult::summary and writes the registry from it.
struct RunSummary {
  std::uint64_t periods = 0;
  std::uint64_t lost_reports = 0;
  // The controller's QP totals (control::Diagnostics; zero without a QP).
  std::uint64_t controller_updates = 0;  // not in the JSONL line
  std::uint64_t controller_fallbacks = 0;
  std::uint64_t qp_iterations_total = 0;
  std::uint64_t qp_fast_path_hits = 0;
  std::uint64_t release_guard_stalls = 0;
  std::uint64_t jobs_released = 0;
  std::uint64_t events_popped = 0;  // the DES's events; not in the JSONL line

  // Fault totals; emitted only when faults_active is set (see PeriodRecord).
  bool faults_active = false;
  std::uint64_t forced_losses = 0;
  std::uint64_t actuation_lost = 0;
  std::uint64_t overload_injections = 0;
  std::uint64_t blackout_periods = 0;
  std::uint64_t stale_drops = 0;     // processors dropped from the tracked set
  std::uint64_t stale_restores = 0;  // processors restored after a report
  int max_staleness = 0;             // worst consecutive-loss streak of the run
};

// The JSONL encoders, exposed so tests can render records exactly as the
// file sink does. Each returns one line without the trailing newline.
std::string to_jsonl(const RunInfo& info);
std::string to_jsonl(const PeriodRecord& rec);
std::string to_jsonl(const RunSummary& summary);

// Receives one run's trace. Implementations must tolerate begin/end being
// called exactly once each, in order, around the period records.
class Sink {
 public:
  virtual ~Sink();
  virtual void begin_run(const RunInfo& info) = 0;
  virtual void period(const PeriodRecord& rec) = 0;
  virtual void end_run(const RunSummary& summary) = 0;
};

// Discards everything (useful to exercise the instrumented path without
// retaining output).
class NullSink final : public Sink {
 public:
  void begin_run(const RunInfo&) override {}
  void period(const PeriodRecord&) override {}
  void end_run(const RunSummary&) override {}
};

// Keeps the structured records in memory for programmatic inspection (the
// invariant fuzz tests read these).
class MemorySink final : public Sink {
 public:
  void begin_run(const RunInfo& info) override;
  void period(const PeriodRecord& rec) override;
  void end_run(const RunSummary& summary) override;

  const RunInfo& info() const { return info_; }
  const std::vector<PeriodRecord>& records() const { return records_; }
  const RunSummary& summary() const { return summary_; }
  bool finished() const { return finished_; }

 private:
  RunInfo info_;
  std::vector<PeriodRecord> records_;
  RunSummary summary_;
  bool finished_ = false;
};

// Streams JSONL to a caller-owned std::ostream.
class JsonlSink : public Sink {
 public:
  explicit JsonlSink(std::ostream& out) : out_(&out) {}

  void begin_run(const RunInfo& info) override;
  void period(const PeriodRecord& rec) override;
  void end_run(const RunSummary& summary) override;

 private:
  std::ostream* out_;
};

// Owns the output file (created/truncated on construction, flushed on
// end_run; throws std::runtime_error when the path cannot be written).
class FileSink final : public Sink {
 public:
  explicit FileSink(const std::string& path);

  void begin_run(const RunInfo& info) override;
  void period(const PeriodRecord& rec) override;
  void end_run(const RunSummary& summary) override;

  const std::string& path() const { return path_; }

 private:
  std::string path_;
  std::ofstream out_;
  JsonlSink jsonl_;
};

}  // namespace eucon::obs
