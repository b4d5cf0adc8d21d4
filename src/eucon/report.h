// Result reporting: CSV exports and a text summary for ExperimentResult.
// Used by the CLI and the figure benches; stable column layouts so plots
// and downstream tooling don't chase the library.
#pragma once

#include <ostream>
#include <string>

#include "eucon/experiment.h"

namespace eucon::report {

// k,u_P1..u_Pn — one row per sampling period.
void write_utilization_csv(const ExperimentResult& result, std::ostream& out);

// k,r_<task name>... — one row per sampling period.
void write_rates_csv(const ExperimentResult& result,
                     const rts::SystemSpec& spec, std::ostream& out);

// Human-readable run summary (set points, steady-state stats per
// processor, deadline ratios, adaptation counters). steady_from = 0 starts
// the window at metrics::steady_state_from(trace length).
void write_summary(const ExperimentResult& result, std::ostream& out,
                   std::size_t steady_from = 0);

// Writes <prefix>_utilization.csv, <prefix>_rates.csv and
// <prefix>_summary.txt. Throws std::invalid_argument when a file cannot
// be opened.
void write_all(const ExperimentResult& result, const rts::SystemSpec& spec,
               const std::string& prefix);

}  // namespace eucon::report
