// eucon_perfbench: the repository's end-to-end benchmark.
//
//   eucon_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                   [--spans PATH]
//
// --trace 0 runs the workload through the library's public API with
// tracing off and reports the end-to-end metrics. --trace 1 runs the
// traced pass instead: the benchmark drives the closed loop itself, one
// span per call into a layer, checks that its loop reproduces
// run_experiment bit for bit, and reports the per-layer metrics. NOTES.md
// defines every metric.
//
// The last line of stdout is one JSON object with the keys correct,
// attempted, failed and metrics. Exit status: 0 when every check passed;
// 1 when a correctness check failed (the JSON line says so); 2 on bad
// arguments or when the run could not gather the samples it reports.
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/ticks.h"
#include "control/model.h"
#include "control/mpc.h"
#include "eucon/experiment.h"
#include "eucon/feedback_lane.h"
#include "harness/spans.h"
#include "harness/stats.h"
#include "harness/workloads.h"
#include "obs/registry.h"
#include "rts/simulator.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

// A run keeps measuring past --seconds until each reported p99 has
// kTailSampleFloor samples (so that at least ten lie beyond it) and the
// quality units are done, but never past kHardCapSeconds.
constexpr std::size_t kTailSampleFloor = 1000;
constexpr double kHardCapSeconds = 150.0;
// The traced pass fails when the layers' self times miss the traced
// period by more than this share of it.
constexpr double kMaxLayerGapPct = 3.0;
// Utilization error is averaged over periods k > kSettledFrom.
constexpr int kSettledFrom = 100;

double seconds_since(Clock::time_point t0, Clock::time_point t1) {
  return std::chrono::duration<double>(t1 - t0).count();
}
double ms_since(Clock::time_point t0, Clock::time_point t1) {
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

// ---------------------------------------------------------------------------
// Arguments
// ---------------------------------------------------------------------------

struct Args {
  Workload workload{};
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string spans_path;
};

[[noreturn]] void usage(const std::string& error) {
  std::fprintf(stderr, "eucon_perfbench: %s\n", error.c_str());
  std::string names;
  for (const std::string& n : workload_names()) names += (names.empty() ? "" : "|") + n;
  std::fprintf(stderr,
               "usage: eucon_perfbench --workload %s --seed N --seconds S "
               "--trace 0|1 [--spans PATH]\n",
               names.c_str());
  std::exit(2);
}

std::optional<double> parse_number(const char* text) {
  char* end = nullptr;
  const double v = std::strtod(text, &end);
  if (end == text || *end != '\0' || !std::isfinite(v)) return std::nullopt;
  return v;
}

Args parse_args(int argc, char** argv) {
  Args args;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const char* value = argv[++i];
    if (flag == "--workload") {
      const auto w = find_workload(value);
      if (!w) usage(std::string("unknown workload: ") + value);
      args.workload = *w;
      have_workload = true;
    } else if (flag == "--seed") {
      char* end = nullptr;
      const unsigned long long s = std::strtoull(value, &end, 10);
      if (end == value || *end != '\0' || value[0] == '-')
        usage(std::string("bad seed: ") + value);
      args.seed = s;
      have_seed = true;
    } else if (flag == "--seconds") {
      const auto s = parse_number(value);
      if (!s || *s <= 0.0 || *s > 60.0)
        usage(std::string("--seconds must be in (0, 60]: ") + value);
      args.seconds = *s;
      have_seconds = true;
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0)
        usage(std::string("--trace must be 0 or 1: ") + value);
      args.trace = value[0] == '1';
      have_trace = true;
    } else if (flag == "--spans") {
      args.spans_path = value;
    } else {
      usage("unknown flag: " + flag);
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace)
    usage("--workload, --seed, --seconds and --trace are required");
  return args;
}

// ---------------------------------------------------------------------------
// Result output
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;  // sample count or base, printed beside the value
};

struct Outcome {
  std::uint64_t attempted = 0;  // completed end-to-end task instances
  std::uint64_t failed = 0;     // operations of runs that threw or failed a check
  std::uint64_t misses = 0;     // end-to-end deadline misses (reported apart)
  std::vector<std::string> errors;

  void fail(const std::string& what, std::uint64_t operations) {
    errors.push_back(what);
    failed += operations;
  }
};

// Prints every metric by name and unit, then the JSON result line.
// Returns the process exit status.
int report(const Args& args, const char* mode, Outcome outcome,
           const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics)
    if (!std::isfinite(m.value)) outcome.errors.push_back(m.name + " is not finite");
  const bool correct = outcome.errors.empty();
  std::printf("# workload %s, seed %" PRIu64 ", %s pass\n", args.workload.name,
              args.seed, mode);
  for (const Metric& m : metrics)
    std::printf("  %-28s %14.6g %-9s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
  std::printf("  operations: %" PRIu64 " attempted, %" PRIu64
              " failed; end-to-end deadline misses: %" PRIu64 "\n",
              outcome.attempted, outcome.failed, outcome.misses);
  for (const std::string& e : outcome.errors)
    std::printf("  CHECK FAILED: %s\n", e.c_str());
  std::string json = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(outcome.attempted) +
                     ", \"failed\": " + std::to_string(outcome.failed) +
                     ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g",
                  std::isfinite(metrics[i].value) ? metrics[i].value : 0.0);
    json += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " + value +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

[[noreturn]] void insufficient(const std::string& what) {
  std::fprintf(stderr, "eucon_perfbench: %s\n", what.c_str());
  std::exit(2);
}

std::string count_note(std::size_t n, const char* what) {
  return "(" + std::to_string(n) + " " + what + ")";
}

Metric p99_metric(const std::string& name, const std::vector<double>& samples,
                  const std::string& unit, const char* what) {
  const std::optional<double> p99 = tail_percentile(samples, 0.99);
  if (!p99)
    insufficient(name + ": fewer than " + std::to_string(kMinTailSamples) +
                 " of " + std::to_string(samples.size()) +
                 " samples lie beyond p99");
  return {name, *p99, unit, count_note(samples.size(), what)};
}

// ---------------------------------------------------------------------------
// Checks and per-run accounting
// ---------------------------------------------------------------------------

// Why a run's trace is wrong, or an empty string: one record per period,
// finite utilizations, finite rates inside every task's [R_min, R_max].
std::string check_trace(const eucon::ExperimentConfig& cfg,
                        const eucon::ExperimentResult& r) {
  if (r.trace.size() != static_cast<std::size_t>(cfg.num_periods))
    return "trace has " + std::to_string(r.trace.size()) + " periods, expected " +
           std::to_string(cfg.num_periods);
  const std::size_t m = cfg.spec.num_tasks();
  for (const eucon::SampleRecord& rec : r.trace) {
    for (const double u : rec.u)
      if (!std::isfinite(u)) return "non-finite utilization at k=" + std::to_string(rec.k);
    if (rec.rates.size() != m) return "rate vector size mismatch";
    for (std::size_t j = 0; j < m; ++j) {
      const double rate = rec.rates[j];
      const auto& task = cfg.spec.tasks[j];
      if (!std::isfinite(rate) || rate < task.rate_min || rate > task.rate_max)
        return "rate of task " + std::to_string(j) + " outside [R_min, R_max] at k=" +
               std::to_string(rec.k);
    }
  }
  return {};
}

std::uint64_t e2e_misses(const eucon::rts::DeadlineStats& d) {
  std::uint64_t misses = 0;
  for (std::size_t t = 0; t < d.num_tasks(); ++t) misses += d.task(t).e2e_misses;
  return misses;
}

// util_err and miss_ratio over the quality units.
struct Quality {
  double err_sum = 0.0;
  std::uint64_t err_count = 0;
  std::uint64_t misses = 0;
  std::uint64_t completed = 0;

  void add(const eucon::ExperimentResult& r) {
    for (const eucon::SampleRecord& rec : r.trace) {
      if (rec.k <= kSettledFrom) continue;
      for (std::size_t p = 0; p < rec.u.size(); ++p)
        err_sum += std::abs(rec.u[p] - r.set_points[p]);
      err_count += rec.u.size();
    }
    misses += e2e_misses(r.deadlines);
    completed += r.deadlines.total_completed_instances();
  }
};

// Per-run bookkeeping shared by both passes: the checks, the operation
// counts and (for a quality unit) the control-quality sums.
void account(const eucon::ExperimentConfig& cfg, const eucon::ExperimentResult& r,
             const std::string& label, Outcome& outcome, Quality* quality) {
  const std::uint64_t ops = r.deadlines.total_completed_instances();
  outcome.attempted += ops;
  outcome.misses += e2e_misses(r.deadlines);
  const std::string bad = check_trace(cfg, r);
  if (!bad.empty()) outcome.fail(label + ": " + bad, ops);
  if (quality != nullptr) quality->add(r);
}

// Wraps a config so that every on_period callback is timestamped.
void stamp_periods(eucon::ExperimentConfig& cfg, std::vector<Clock::time_point>& stamps) {
  stamps.clear();
  stamps.reserve(static_cast<std::size_t>(cfg.num_periods));
  cfg.on_period = [&stamps](int, eucon::control::Controller&) {
    stamps.push_back(Clock::now());
  };
}

void append_intervals_ms(const std::vector<Clock::time_point>& stamps,
                         std::vector<double>& out) {
  for (std::size_t i = 1; i < stamps.size(); ++i)
    out.push_back(ms_since(stamps[i - 1], stamps[i]));
}

// Peak resident memory of this process image, in MiB. VmHWM, not
// getrusage's ru_maxrss: ru_maxrss survives exec, so it would report the
// launching process's size whenever that was larger.
double peak_rss_mb() {
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (status == nullptr) return std::nan("");
  char line[256];
  double kib = std::nan("");
  while (std::fgets(line, sizeof line, status) != nullptr)
    if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
  std::fclose(status);
  return kib / 1024.0;
}

// ---------------------------------------------------------------------------
// Untraced pass: the end-to-end metrics
// ---------------------------------------------------------------------------

// The untraced pass's timings, summarised per block: consecutive units
// holding at least kTailSampleFloor period intervals, so that each block's
// p99 has ten samples beyond it. Every timing metric is the median of its
// per-block values, so a burst of host interference moves one block rather
// than the figure. Samples left after the last full block join it. Two
// blocks' samples are held at a time, so peak RSS does not grow with the
// run's length.
class Blocks {
 public:
  // Appends one unit's period intervals and the host time its runs took.
  void add(const std::vector<Clock::time_point>& stamps, std::uint64_t periods,
           double run_seconds) {
    append_intervals_ms(stamps, current_);
    periods_ += periods;
    seconds_ += run_seconds;
  }
  void unit_done() {
    if (current_.size() >= kTailSampleFloor) close();
  }
  void finish() {
    if (current_.empty()) return;
    if (current_.size() < kTailSampleFloor && !rate_.empty()) {
      rate_.pop_back();
      p50_.pop_back();
      p99_.pop_back();
      samples_ -= last_.size();
      current_.insert(current_.end(), last_.begin(), last_.end());
      periods_ += last_periods_;
      seconds_ += last_seconds_;
    }
    close();
  }
  std::size_t count() const { return rate_.size(); }
  std::string note() const {
    return "(median of " + std::to_string(count()) + " blocks, " +
           std::to_string(samples_) + " samples)";
  }
  const std::vector<double>& rate() const { return rate_; }
  const std::vector<double>& p50() const { return p50_; }
  const std::vector<double>& p99() const { return p99_; }

 private:
  void close() {
    const std::optional<double> p99 = tail_percentile(current_, 0.99);
    if (!p99)
      insufficient("period_p99_ms: fewer than " + std::to_string(kMinTailSamples) +
                   " of " + std::to_string(current_.size()) +
                   " samples in a block lie beyond p99");
    rate_.push_back(static_cast<double>(periods_) / seconds_);
    p50_.push_back(median(current_));
    p99_.push_back(*p99);
    samples_ += current_.size();
    std::swap(last_, current_);
    current_.clear();
    last_periods_ = std::exchange(periods_, 0);
    last_seconds_ = std::exchange(seconds_, 0.0);
  }

  std::vector<double> current_, last_;
  std::uint64_t periods_ = 0, last_periods_ = 0;
  double seconds_ = 0.0, last_seconds_ = 0.0;
  std::vector<double> rate_, p50_, p99_;
  std::size_t samples_ = 0;
};

struct EndToEnd {
  Blocks blocks;
  std::vector<double> setup_s;
  std::size_t units = 0;
  Quality quality;
  Outcome outcome;

  bool minimums_met(const Workload& w) const {
    return units >= w.quality_units && blocks.count() >= 1;
  }
};

bool window_open(Clock::time_point start, double seconds, bool minimums_met) {
  const double elapsed = seconds_since(start, Clock::now());
  if (elapsed >= kHardCapSeconds) return false;
  return elapsed < seconds || !minimums_met;
}

void measure_des(const Args& args, EndToEnd& e) {
  const Workload& w = args.workload;
  std::vector<Clock::time_point> stamps;
  const auto start = Clock::now();
  while (window_open(start, args.seconds, e.minimums_met(w))) {
    eucon::ExperimentConfig cfg = unit_config(w, args.seed, e.units);
    stamp_periods(cfg, stamps);
    const std::string label = "unit " + std::to_string(e.units);
    const auto t0 = Clock::now();
    try {
      const eucon::ExperimentResult r = eucon::run_experiment(cfg);
      const double run_seconds = seconds_since(t0, Clock::now());
      EUCON_REQUIRE(!stamps.empty(), "run_experiment made no on_period callback");
      e.setup_s.push_back(seconds_since(t0, stamps.front()));
      e.blocks.add(stamps, r.trace.size(), run_seconds);
      account(cfg, r, label, e.outcome,
              e.units < w.quality_units ? &e.quality : nullptr);
    } catch (const std::exception& ex) {
      e.outcome.attempted += 1;
      e.outcome.fail(label + " threw: " + ex.what(), 1);
    }
    ++e.units;
    e.blocks.unit_done();
  }
}

// run_batch offers no hook at the call into run_experiment, so the
// campaign's set-up is timed on serial probes: every grid cell, one period
// each. A pass's sample is its mean over the cells; the median of a
// mixture of cheap SIMPLE and dear MEDIUM cells would jump between the two
// groups.
double campaign_setup_pass(const std::vector<eucon::ExperimentSpec>& cells) {
  std::vector<Clock::time_point> stamps;
  double sum = 0.0;
  for (const eucon::ExperimentSpec& cell : cells) {
    eucon::ExperimentConfig cfg = cell.config;
    cfg.num_periods = 1;
    stamp_periods(cfg, stamps);
    const auto t0 = Clock::now();
    eucon::run_experiment(cfg);
    sum += seconds_since(t0, stamps.at(0));
  }
  return sum / static_cast<double>(cells.size());
}

// One campaign batch through run_batch on kCampaignWorkers workers with
// the shared registry, every run's on_period callbacks timestamped into
// `stamps` (one slot per run).
struct CampaignBatch {
  std::vector<eucon::ExperimentSpec> specs;
  std::vector<eucon::ExperimentResult> results;
  double seconds = 0.0;
};

CampaignBatch run_campaign_batch(std::uint64_t seed, std::size_t unit,
                                 eucon::obs::Registry& registry,
                                 std::vector<std::vector<Clock::time_point>>& stamps) {
  CampaignBatch b;
  b.specs = campaign_specs(seed, unit);
  stamps.resize(b.specs.size());
  for (std::size_t i = 0; i < b.specs.size(); ++i) stamp_periods(b.specs[i].config, stamps[i]);
  eucon::BatchOptions options;
  options.num_workers = kCampaignWorkers;
  options.metrics = &registry;
  const auto t0 = Clock::now();
  b.results = eucon::run_batch(b.specs, options);
  b.seconds = seconds_since(t0, Clock::now());
  return b;
}

void measure_campaign(const Args& args, EndToEnd& e) {
  const Workload& w = args.workload;
  const auto start = Clock::now();
  const std::vector<eucon::ExperimentSpec> cells = campaign_cells(args.seed);
  eucon::obs::Registry registry;  // shared by every run, as in steering
  std::vector<std::vector<Clock::time_point>> stamps;
  while (window_open(start, args.seconds, e.minimums_met(w))) {
    const std::string label = "batch " + std::to_string(e.units);
    try {
      const CampaignBatch b = run_campaign_batch(args.seed, e.units, registry, stamps);
      for (std::size_t i = 0; i < b.results.size(); ++i) {
        // The batch's wall time is charged once, with its first run.
        e.blocks.add(stamps[i], b.results[i].trace.size(), i == 0 ? b.seconds : 0.0);
        account(b.specs[i].config, b.results[i], label + "/" + b.specs[i].name, e.outcome,
                e.units < w.quality_units ? &e.quality : nullptr);
      }
    } catch (const std::exception& ex) {
      e.outcome.attempted += 1;
      e.outcome.fail(label + " threw: " + ex.what(), 1);
    }
    ++e.units;
    e.blocks.unit_done();
    e.setup_s.push_back(campaign_setup_pass(cells));
  }
}

int run_untraced(const Args& args) {
  EndToEnd e;
  if (args.workload.kind == WorkloadKind::kCampaign)
    measure_campaign(args, e);
  else
    measure_des(args, e);
  const double rss_mb = peak_rss_mb();  // before the statistics' sorted copies
  e.blocks.finish();
  if (e.units < args.workload.quality_units)
    insufficient("only " + std::to_string(e.units) + " of " +
                 std::to_string(args.workload.quality_units) +
                 " quality units finished before the time cap");
  if (e.blocks.count() == 0 || e.setup_s.empty() || e.quality.err_count == 0 ||
      e.quality.completed == 0)
    insufficient("no completed runs to measure");
  const std::string quality_note =
      "(units 1-" + std::to_string(args.workload.quality_units) + " of " +
      std::to_string(e.units) + ")";
  std::vector<Metric> metrics = {
      {"periods_per_s", median(e.blocks.rate()), "1/s", e.blocks.note()},
      {"period_p50_ms", median(e.blocks.p50()), "ms", e.blocks.note()},
      {"period_p99_ms", median(e.blocks.p99()), "ms", e.blocks.note()},
      {"setup_s", median(e.setup_s), "s", count_note(e.setup_s.size(), "set-ups, median")},
      {"peak_rss_mb", rss_mb, "MB", "(VmHWM after measuring)"},
      {"util_err", e.quality.err_sum / static_cast<double>(e.quality.err_count),
       "fraction", quality_note},
      {"miss_ratio",
       static_cast<double>(e.quality.misses) / static_cast<double>(e.quality.completed),
       "fraction", quality_note},
  };
  return report(args, "untraced", e.outcome, metrics);
}

// ---------------------------------------------------------------------------
// Traced pass: the per-layer metrics
// ---------------------------------------------------------------------------

// The public counters of a central MpcController.
struct MpcCounters {
  std::uint64_t updates = 0, qp_iterations = 0, fast_path_hits = 0, fallbacks = 0;

  MpcCounters& operator+=(const MpcCounters& o) {
    updates += o.updates;
    qp_iterations += o.qp_iterations;
    fast_path_hits += o.fast_path_hits;
    fallbacks += o.fallbacks;
    return *this;
  }
};

// The per-period outputs of one hand-driven run plus the layer counters.
struct DrivenRun {
  std::vector<std::vector<double>> u;
  std::vector<std::vector<double>> rates;
  std::uint64_t jobs = 0;
  std::uint64_t guard_stalls = 0;
  std::uint64_t completed = 0;
  std::uint64_t misses = 0;
  std::optional<MpcCounters> mpc;  // empty unless the controller is an MpcController
};

// Builds what run_experiment builds for a config without faults,
// admission, reallocation, a co-hosted or an open-loop controller, and drives
// run_until -> sample_utilizations -> deliver -> update -> set_rates with
// one span per call under one span per period.
DrivenRun drive_traced(const eucon::ExperimentConfig& cfg, SpanLog& log,
                       std::uint32_t run) {
  std::size_t s = log.begin("control.build", -1, run, 0);
  const std::unique_ptr<eucon::control::Controller> controller =
      eucon::make_controller(cfg);
  log.end(s);
  s = log.begin("eucon.model", -1, run, 0);
  const eucon::control::PlantModel model =
      eucon::control::make_plant_model(cfg.spec, cfg.set_points);
  log.end(s);
  s = log.begin("rts.build", -1, run, 0);
  eucon::rts::Simulator sim(cfg.spec, cfg.sim);
  log.end(s);
  eucon::FeedbackLanes lanes(model.b, cfg.report_loss_probability, cfg.sim.seed);

  DrivenRun out;
  out.u.reserve(static_cast<std::size_t>(cfg.num_periods));
  out.rates.reserve(static_cast<std::size_t>(cfg.num_periods));
  const eucon::Ticks ts = eucon::units_to_ticks(cfg.sampling_period);
  const std::uint64_t jobs0 = sim.jobs_released();
  const std::uint64_t stalls0 = sim.release_guard_stalls();
  for (int k = 1; k <= cfg.num_periods; ++k) {
    const auto period = static_cast<std::uint32_t>(k);
    const std::size_t p = log.begin("period", -1, run, period);
    const auto parent = static_cast<std::int64_t>(p);
    s = log.begin("rts.advance", parent, run, period);
    sim.run_until(static_cast<eucon::Ticks>(k) * ts);
    log.end(s);
    s = log.begin("rts.sample", parent, run, period);
    std::vector<double> u = sim.sample_utilizations();
    log.end(s);
    s = log.begin("eucon.lanes", parent, run, period);
    const eucon::linalg::Vector& seen = lanes.deliver(eucon::linalg::Vector(u));
    log.end(s);
    s = log.begin("control.update", parent, run, period);
    const eucon::linalg::Vector& rates = controller->update(seen);
    log.end(s);
    s = log.begin("rts.actuate", parent, run, period);
    sim.set_rates(rates.data());
    log.end(s);
    out.u.push_back(std::move(u));
    out.rates.push_back(rates.data());
    log.end(p);
  }
  out.jobs = sim.jobs_released() - jobs0;
  out.guard_stalls = sim.release_guard_stalls() - stalls0;
  out.completed = sim.deadline_stats().total_completed_instances();
  out.misses = e2e_misses(sim.deadline_stats());
  if (const auto* mpc = dynamic_cast<const eucon::control::MpcController*>(controller.get()))
    out.mpc = MpcCounters{mpc->update_count(), mpc->qp_iterations_total(),
                          mpc->fast_path_hits(), mpc->fallback_count()};
  return out;
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

// Why the driven run differs from run_experiment's trace, or "".
std::string compare_runs(const DrivenRun& d, const eucon::ExperimentResult& ref) {
  if (d.u.size() != ref.trace.size()) return "period count differs from run_experiment";
  for (std::size_t i = 0; i < d.u.size(); ++i) {
    if (!same_bits(d.u[i], ref.trace[i].u))
      return "u differs from run_experiment at k=" + std::to_string(i + 1);
    if (!same_bits(d.rates[i], ref.trace[i].rates))
      return "rates differ from run_experiment at k=" + std::to_string(i + 1);
  }
  return {};
}

struct TracedPass {
  SpanLog log{1u << 20};
  std::vector<double> untraced_period_ms;  // run_experiment's on_period intervals
  std::uint64_t periods = 0;
  std::uint64_t jobs = 0;
  std::uint64_t guard_stalls = 0;
  std::uint32_t runs = 0;
  std::optional<MpcCounters> mpc;
  Outcome outcome;

  // One untraced run of `cfg` through run_experiment (the reference) and
  // one traced run, in the given order. The traced run must reproduce the
  // reference bit for bit, and so is as valid as check_trace finds the
  // reference. The reference's period intervals give the untraced p50.
  void pair(eucon::ExperimentConfig cfg, bool traced_first, const std::string& label) {
    try {
      std::optional<DrivenRun> d;
      if (traced_first) d = drive_traced(cfg, log, runs++);
      std::vector<Clock::time_point> stamps;
      stamp_periods(cfg, stamps);
      const eucon::ExperimentResult ref = eucon::run_experiment(cfg);
      append_intervals_ms(stamps, untraced_period_ms);
      if (!traced_first) d = drive_traced(cfg, log, runs++);
      outcome.attempted += d->completed;
      outcome.misses += d->misses;
      std::string bad = compare_runs(*d, ref);
      if (bad.empty()) bad = check_trace(cfg, ref);
      if (!bad.empty()) outcome.fail(label + ": " + bad, d->completed);
      periods += d->u.size();
      jobs += d->jobs;
      guard_stalls += d->guard_stalls;
      if (d->mpc) {
        if (!mpc) mpc.emplace();
        *mpc += *d->mpc;
      }
    } catch (const std::exception& ex) {
      outcome.attempted += 1;
      outcome.fail(label + " threw: " + ex.what(), 1);
    }
  }
};

// The run_batch phase of the campaign's traced pass: per-run wall time
// (first to last on_period) and how busy the pool kept its workers.
struct BatchTiming {
  std::vector<double> run_ms;
  double run_ms_sum = 0.0;
  double batch_seconds = 0.0;
};

void time_batches(const Args& args, Clock::time_point start, BatchTiming& t,
                  Outcome& outcome) {
  eucon::obs::Registry registry;
  std::vector<std::vector<Clock::time_point>> stamps;
  for (std::size_t unit = 0;
       window_open(start, args.seconds, t.run_ms.size() >= kTailSampleFloor); ++unit) {
    try {
      t.batch_seconds += run_campaign_batch(args.seed, unit, registry, stamps).seconds;
    } catch (const std::exception& ex) {
      outcome.errors.push_back("batch " + std::to_string(unit) + " threw: " + ex.what());
      return;
    }
    for (const auto& s : stamps) {
      if (s.empty()) continue;
      const double ms = ms_since(s.front(), s.back());
      t.run_ms.push_back(ms);
      t.run_ms_sum += ms;
    }
  }
}

// Per-layer metrics from the spans. The JSON carries the metrics every
// workload has; the rest are printed beside them.
struct LayerTimes {
  std::vector<double> period_ms, advance_ms, update_ms, sample_us, lanes_us,
      actuate_us, control_build_ms, model_ms, sim_build_ms;
  double period_sum = 0.0, children_self_sum = 0.0, advance_sum = 0.0, update_sum = 0.0;
};

LayerTimes layer_times(const SpanLog& log) {
  const std::vector<Span>& spans = log.spans();
  const std::vector<std::int64_t> self = self_times(spans);
  LayerTimes t;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::string name = spans[i].name;
    const double ms = static_cast<double>(self[i]) * 1e-6;
    if (name == "period") {
      const double dur = static_cast<double>(spans[i].end_ns - spans[i].start_ns) * 1e-6;
      t.period_ms.push_back(dur);
      t.period_sum += dur;
      continue;
    }
    if (spans[i].parent >= 0) t.children_self_sum += ms;
    if (name == "rts.advance") {
      t.advance_ms.push_back(ms);
      t.advance_sum += ms;
    } else if (name == "control.update") {
      t.update_ms.push_back(ms);
      t.update_sum += ms;
    } else if (name == "rts.sample") {
      t.sample_us.push_back(ms * 1e3);
    } else if (name == "eucon.lanes") {
      t.lanes_us.push_back(ms * 1e3);
    } else if (name == "rts.actuate") {
      t.actuate_us.push_back(ms * 1e3);
    } else if (name == "control.build") {
      t.control_build_ms.push_back(ms);
    } else if (name == "eucon.model") {
      t.model_ms.push_back(ms);
    } else if (name == "rts.build") {
      t.sim_build_ms.push_back(ms);
    }
  }
  return t;
}

int run_traced(const Args& args) {
  const Workload& w = args.workload;
  TracedPass pass;
  BatchTiming batches;
  const auto start = Clock::now();
  // Pairs alternate which run goes first, so that drift in host speed and
  // cache warmth falls on the traced and the untraced runs alike.
  if (w.kind == WorkloadKind::kCampaign) {
    // run_batch for the pool metrics, then one replica of every grid cell
    // (after the batches, so that the short pass runs in a warm process).
    time_batches(args, start, batches, pass.outcome);
    const std::vector<eucon::ExperimentSpec> cells = campaign_cells(args.seed);
    for (std::size_t i = 0; i < cells.size(); ++i)
      pass.pair(cells[i].config, i % 2 == 1, cells[i].name);
  } else {
    for (std::size_t unit = 0;
         window_open(start, args.seconds,
                     unit >= w.traced_inputs && pass.periods >= kTailSampleFloor);
         ++unit) {
      const std::size_t input = unit % w.traced_inputs;
      pass.pair(unit_config(w, args.seed, input), unit % 2 == 1,
                "input " + std::to_string(input));
    }
  }
  if (!args.spans_path.empty() && !pass.log.write_csv(args.spans_path))
    std::fprintf(stderr, "eucon_perfbench: cannot write %s\n", args.spans_path.c_str());

  const LayerTimes t = layer_times(pass.log);
  if (t.period_ms.empty() || pass.untraced_period_ms.empty() || pass.jobs == 0)
    insufficient("the traced pass completed no runs");
  const double untraced_p50 = median(pass.untraced_period_ms);
  const double traced_p50 = median(t.period_ms);
  const double gap_pct =
      std::abs(t.children_self_sum - t.period_sum) / t.period_sum * 100.0;
  if (gap_pct > kMaxLayerGapPct)
    pass.outcome.errors.push_back("layer self times miss the traced period by " +
                                  std::to_string(gap_pct) + "%");
  const auto periods = static_cast<double>(pass.periods);
  const std::string per_period = "(" + std::to_string(pass.periods) + " periods)";
  std::vector<Metric> metrics = {
      {"rts.advance_p50_ms", median(t.advance_ms), "ms", count_note(t.advance_ms.size(), "samples")},
      p99_metric("rts.advance_p99_ms", t.advance_ms, "ms", "samples"),
      {"rts.advance_share", t.advance_sum / t.period_sum, "fraction", "(of the traced period)"},
      {"rts.ns_per_job", t.advance_sum * 1e6 / static_cast<double>(pass.jobs), "ns",
       "(" + std::to_string(pass.jobs) + " jobs)"},
      {"rts.jobs_per_period", static_cast<double>(pass.jobs) / periods, "count", per_period},
      {"rts.guard_stalls_per_period", static_cast<double>(pass.guard_stalls) / periods,
       "count", per_period},
      {"control.update_p50_ms", median(t.update_ms), "ms", count_note(t.update_ms.size(), "samples")},
      p99_metric("control.update_p99_ms", t.update_ms, "ms", "samples"),
      {"control.update_share", t.update_sum / t.period_sum, "fraction", "(of the traced period)"},
      {"control.build_ms", median(t.control_build_ms), "ms", count_note(t.control_build_ms.size(), "builds, median")},
      {"eucon.model_ms", median(t.model_ms), "ms", count_note(t.model_ms.size(), "builds, median")},
      {"rts.build_ms", median(t.sim_build_ms), "ms", count_note(t.sim_build_ms.size(), "builds, median")},
      {"rts.sample_p50_us", median(t.sample_us), "us", count_note(t.sample_us.size(), "samples")},
      {"rts.actuate_p50_us", median(t.actuate_us), "us", count_note(t.actuate_us.size(), "samples")},
      {"eucon.lanes_p50_us", median(t.lanes_us), "us", count_note(t.lanes_us.size(), "samples")},
      {"trace.overhead_pct", (traced_p50 - untraced_p50) / untraced_p50 * 100.0, "%",
       "(traced period p50 " + std::to_string(traced_p50) + " ms vs untraced " +
           std::to_string(untraced_p50) + " ms)"},
      {"trace.layer_sum_gap_pct", gap_pct, "%",
       "(limit " + std::to_string(kMaxLayerGapPct) + "%)"},
  };
  // Layer metrics that only some workloads have: printed, not in the JSON.
  if (const std::optional<MpcCounters>& mpc = pass.mpc) {
    const auto updates = static_cast<double>(mpc->updates);
    std::printf("# central MPC (%" PRIu64 " updates): qp.iterations_per_period %.6g, "
                "qp.fast_path_ratio %.6g, qp.fallbacks %" PRIu64 "\n",
                mpc->updates, static_cast<double>(mpc->qp_iterations) / updates,
                static_cast<double>(mpc->fast_path_hits) / updates, mpc->fallbacks);
  }
  if (!batches.run_ms.empty()) {
    const std::optional<double> run_p99 = tail_percentile(batches.run_ms, 0.99);
    std::printf("# run_batch (%zu runs, %zu workers): eucon.run_p50_ms %.6g, "
                "eucon.run_p99_ms %s, common.pool_busy_ratio %.6g\n",
                batches.run_ms.size(), kCampaignWorkers, median(batches.run_ms),
                run_p99 ? std::to_string(*run_p99).c_str() : "refused",
                batches.run_ms_sum * 1e-3 /
                    (static_cast<double>(kCampaignWorkers) * batches.batch_seconds));
  }
  return report(args, "traced", pass.outcome, metrics);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Args args = perfbench::parse_args(argc, argv);
  try {
    return args.trace ? perfbench::run_traced(args) : perfbench::run_untraced(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "eucon_perfbench: %s\n", e.what());
    return 2;
  }
}
