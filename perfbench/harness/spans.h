// In-memory spans for the traced pass.
//
// The benchmark times each layer from outside: every call it makes into a
// layer is wrapped in a span carrying a name, start and end (steady clock,
// nanoseconds since the log was created), the span that caused it, and an
// id made of the run and the sampling period (period 0 is set-up). Spans
// stay in memory while the pass runs and are written out once at the end.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = "";     // a string literal naming the call
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t parent = -1;  // index of the causing span; -1 for a root
  std::uint32_t run = 0;
  std::uint32_t period = 0;
};

class SpanLog {
 public:
  explicit SpanLog(std::size_t reserve = 0);

  // Opens a span starting now and returns its index. The slot is appended
  // before the clock is read, so a reallocation of the log is charged to
  // the parent, never to the span itself.
  std::size_t begin(const char* name, std::int64_t parent, std::uint32_t run,
                    std::uint32_t period);
  void end(std::size_t index);

  const std::vector<Span>& spans() const { return spans_; }

  // One CSV row per span: run,period,name,start_ns,end_ns,parent,self_ns.
  // Returns false when the file cannot be written.
  bool write_csv(const std::string& path) const;

 private:
  std::int64_t now_ns() const;

  std::chrono::steady_clock::time_point epoch_;
  std::vector<Span> spans_;
};

// Self time of every span: its duration minus the part of its interval
// covered by its direct children. Overlapping children are counted once,
// and only the part of a child inside its parent is subtracted.
std::vector<std::int64_t> self_times(const std::vector<Span>& spans);

}  // namespace perfbench
