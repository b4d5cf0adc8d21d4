// Execution tracing: a per-event record of scheduling decisions.
//
// The simulator (optionally) reports every job release, start, preemption,
// resume and completion. Traces serve three purposes: debugging, Gantt
// exports, and — most importantly — the schedule-validity property tests
// (no two jobs executing concurrently on one processor, work conservation,
// no execution before release).
#pragma once

#include <cstdint>
#include <ostream>
#include <vector>

#include "common/annotations.h"
#include "common/ticks.h"

namespace eucon::rts {

enum class TraceKind {
  kRelease,     // job became ready on its processor
  kStart,       // job began executing (first dispatch)
  kPreempt,     // job was preempted by a higher-priority job
  kResume,      // job resumed after preemption
  kCompletion,  // job finished its demand
};

struct TraceRecord {
  Ticks time = 0;
  TraceKind kind = TraceKind::kRelease;
  std::uint64_t job_id = 0;
  int task = -1;
  int subtask = -1;
  int processor = -1;
};

// Append-only in-memory trace sink.
class TraceLog {
 public:
  void record(const TraceRecord& rec)
      EUCON_ALLOC_OK("opt-in trace log: grows with the run by design") {
    records_.push_back(rec);
  }
  const std::vector<TraceRecord>& records() const { return records_; }
  std::size_t size() const { return records_.size(); }
  void clear() { records_.clear(); }

 private:
  std::vector<TraceRecord> records_;
};

// A contiguous interval during which one job ran uninterrupted.
struct ExecutionSlice {
  Ticks begin = 0;
  Ticks end = 0;
  std::uint64_t job_id = 0;
  int task = -1;
  int subtask = -1;
  int processor = -1;
};

// Reconstructs per-processor execution slices from a trace (start/resume
// paired with preempt/completion). Throws std::invalid_argument on
// malformed traces.
std::vector<ExecutionSlice> reconstruct_slices(const TraceLog& log);

// Writes the raw trace as CSV (time_units,kind,job,task,subtask,processor)
// — loadable by any plotting tool for Gantt charts.
void write_trace_csv(const TraceLog& log, std::ostream& out);

// Writes reconstructed execution slices as CSV
// (processor,task,subtask,job,begin_units,end_units).
void write_slices_csv(const std::vector<ExecutionSlice>& slices,
                      std::ostream& out);

const char* trace_kind_name(TraceKind kind);

}  // namespace eucon::rts
