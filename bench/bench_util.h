// Shared scaffolding for the figure/table reproduction benches.
//
// Every bench prints (a) the series the paper plots, as CSV on stdout, and
// (b) a PASS/FAIL summary of *shape* checks — the qualitative claims the
// paper makes about that figure. Exit code = number of failed checks. The
// report-emitting benches check their JSON output with report_checks.h.
#pragma once

#include <cstdio>
#include <string>
#include <vector>

namespace eucon::bench {

class ShapeChecks {
 public:
  void expect(bool ok, const std::string& what) {
    std::printf("[%s] %s\n", ok ? "PASS" : "FAIL", what.c_str());
    if (!ok) ++failures_;
    ++total_;
  }

  // Prints the summary and returns the exit code.
  int finish(const char* bench_name) const {
    std::printf("== %s: %d/%d shape checks passed ==\n", bench_name,
                total_ - failures_, total_);
    return failures_;
  }

 private:
  int failures_ = 0;
  int total_ = 0;
};

inline void print_row(const std::vector<double>& values) {
  bool first = true;
  for (double v : values) {
    std::printf(first ? "%.6g" : ",%.6g", v);
    first = false;
  }
  std::printf("\n");
}

inline void print_header(const std::vector<std::string>& cols) {
  bool first = true;
  for (const auto& c : cols) {
    std::printf(first ? "%s" : ",%s", c.c_str());
    first = false;
  }
  std::printf("\n");
}

}  // namespace eucon::bench
