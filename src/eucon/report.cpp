#include "eucon/report.h"

#include <fstream>

#include "common/check.h"
#include "common/csv.h"
#include "eucon/metrics.h"

namespace eucon::report {

void write_utilization_csv(const ExperimentResult& result, std::ostream& out) {
  CsvWriter w(out);
  std::vector<std::string> header{"k"};
  for (std::size_t p = 0; p < result.set_points.size(); ++p)
    header.push_back("u_P" + std::to_string(p + 1));
  w.write_header(header);
  for (const auto& rec : result.trace) {
    std::vector<double> row{static_cast<double>(rec.k)};
    row.insert(row.end(), rec.u.begin(), rec.u.end());
    w.write_row(row);
  }
}

void write_rates_csv(const ExperimentResult& result,
                     const rts::SystemSpec& spec, std::ostream& out) {
  EUCON_REQUIRE(result.trace.empty() ||
                    result.trace.front().rates.size() == spec.num_tasks(),
                "spec does not match the result");
  CsvWriter w(out);
  std::vector<std::string> header{"k"};
  for (const auto& t : spec.tasks) header.push_back("r_" + t.name);
  w.write_header(header);
  for (const auto& rec : result.trace) {
    std::vector<double> row{static_cast<double>(rec.k)};
    row.insert(row.end(), rec.rates.begin(), rec.rates.end());
    w.write_row(row);
  }
}

void write_summary(const ExperimentResult& result, std::ostream& out,
                   std::size_t steady_from) {
  // Empty traces (a run aborted before its first sampling period) have no
  // steady-state window; RunningStats would hand back quiet-NaN min/max and
  // the NaN would flow silently into the summary, so skip explicitly.
  if (result.trace.empty()) {
    out << "periods: 0\n";
    out << "no samples recorded; per-processor statistics skipped\n";
    return;
  }
  if (steady_from == 0) {
    steady_from = result.trace.size() > metrics::kSteadyStateFrom * 2
                      ? metrics::kSteadyStateFrom
                      : result.trace.size() / 3;
  }
  EUCON_REQUIRE(steady_from < result.trace.size(),
                "steady-state window starts past the end of the trace");
  out << "periods: " << result.trace.size() << "\n";
  out << "steady-state window: [" << steady_from << ", "
      << result.trace.size() << ")\n";
  for (std::size_t p = 0; p < result.set_points.size(); ++p) {
    const auto a = metrics::acceptability(result, p, steady_from);
    out << "P" << p + 1 << ": mean " << a.mean << " sigma " << a.stddev
        << " set " << a.set_point << " -> "
        << (a.acceptable() ? "acceptable" : "NOT acceptable") << "\n";
  }
  out << "e2e deadline miss ratio: " << result.deadlines.e2e_miss_ratio()
      << "\n";
  out << "subtask deadline miss ratio: "
      << result.deadlines.subtask_miss_ratio() << "\n";
  for (std::size_t t = 0; t < result.deadlines.num_tasks(); ++t) {
    const RunningStats& rt = result.deadlines.task(t).response_time_units;
    // min()/max() are quiet-NaN on an empty window — a task that never
    // completed an instance gets an explicit note instead of NaN columns.
    if (rt.count() == 0) {
      out << "T" << t + 1 << " response time: no completed instances\n";
      continue;
    }
    out << "T" << t + 1 << " response time: min " << rt.min() << " mean "
        << rt.mean() << " max " << rt.max() << " (" << rt.count()
        << " instances)\n";
  }
  out << "controller fallbacks: " << result.summary.controller_fallbacks << "\n";
  out << "lost reports: " << result.summary.lost_reports << "\n";
  if (result.admission_suspensions || result.admission_readmissions)
    out << "admission: " << result.admission_suspensions << " suspensions, "
        << result.admission_readmissions << " readmissions\n";
  if (!result.reallocations.empty()) {
    out << "reallocations:";
    for (const auto& m : result.reallocations)
      out << " T" << m.task + 1 << "." << m.subtask + 1 << ":P" << m.from + 1
          << "->P" << m.to + 1;
    out << "\n";
  }
}

void write_all(const ExperimentResult& result, const rts::SystemSpec& spec,
               const std::string& prefix) {
  const auto open = [](const std::string& path) {
    std::ofstream out(path);
    EUCON_REQUIRE(out.good(), "cannot open " + path);
    return out;
  };
  auto u = open(prefix + "_utilization.csv");
  write_utilization_csv(result, u);
  auto r = open(prefix + "_rates.csv");
  write_rates_csv(result, spec, r);
  auto s = open(prefix + "_summary.txt");
  write_summary(result, s);
}

}  // namespace eucon::report
