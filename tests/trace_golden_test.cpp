// Golden-trace regression suite (docs/quality.md): pinned configurations
// run under fixed seeds and their JSONL traces are byte-compared against
// the files checked in under tests/golden/. Any behavior change in the
// simulator, the controller, the QP solver, the feedback lanes, or the
// trace encoding shows up here as a byte diff.
//
// After an *intentional* change, regenerate with tools/regen_golden.sh and
// review the diff like any other code change.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "eucon/eucon.h"

namespace eucon {
namespace {

struct GoldenCase {
  const char* name;  // golden file stem (tests/golden/<name>.jsonl)
  bool medium;       // MEDIUM workload instead of SIMPLE
  double etf;
  double jitter;
  double loss;
  int periods;
  std::uint64_t seed;
  // Fault-injection cases (docs/robustness.md): a JSON fault plan plus the
  // watchdog configuration. Null plan = clean run.
  const char* faults_json = nullptr;
  const char* degrade = nullptr;
  int stale_limit = 0;
};

// Without this, gtest prints a case as its raw bytes, and the name
// pointer in them moves with every process under ASLR — so the
// "# GetParam() = ..." part of the listed test name (which CTest keeps)
// would change on every build.
void PrintTo(const GoldenCase& c, std::ostream* os) { *os << c.name; }

// A compressed version of the blackout_demo scenario with every fault
// source live, so the faulted trace encoding (per-period "faults" blocks,
// summary totals) is byte-pinned alongside the clean cases.
const char* const kFaultPlanJson = R"({
  "seed": 7,
  "gilbert_elliott": {"p_enter": 0.05, "p_exit": 0.3,
                      "loss_good": 0.01, "loss_bad": 0.9},
  "actuation_loss": 0.1,
  "actuation_delay": 1,
  "lane_outages": [{"lane": 0, "start": 5, "duration": 12}],
  "actuation_outages": [{"processor": 1, "start": 8, "duration": 4}],
  "overload_spikes": [{"processor": 2, "start": 15, "duration": 5,
                       "exec": 30.0}],
  "controller_blackouts": [{"start": 25, "duration": 6}]
})";

// The paper's two ends of the gain axis on SIMPLE (g = etf; g = 1 is the
// stable nominal point, g = 7 is far past the critical gain and keeps the
// loop saturated), MEDIUM with lossy feedback lanes so the staleness path
// is pinned too, and MEDIUM under the full fault plan with the hold-rates
// watchdog so every degradation code path is byte-pinned.
const GoldenCase kCases[] = {
    {"simple_g1", false, 1.0, 0.1, 0.0, 60, 20260805},
    {"simple_g7", false, 7.0, 0.1, 0.0, 60, 20260805},
    {"medium_loss", true, 0.8, 0.2, 0.1, 50, 77},
    {"medium_fault", true, 0.8, 0.2, 0.1, 50, 77, kFaultPlanJson,
     "hold-rates", 3},
};

ExperimentConfig make_config(const GoldenCase& c) {
  ExperimentConfig cfg;
  cfg.spec = c.medium ? workloads::medium() : workloads::simple();
  cfg.mpc = c.medium ? workloads::medium_controller_params()
                     : workloads::simple_controller_params();
  cfg.sim.etf = rts::EtfProfile::constant(c.etf);
  cfg.sim.jitter = c.jitter;
  cfg.sim.seed = c.seed;
  cfg.report_loss_probability = c.loss;
  cfg.num_periods = c.periods;
  cfg.run_name = c.name;
  if (c.faults_json != nullptr)
    cfg.faults = faults::parse_fault_plan(c.faults_json);
  if (c.degrade != nullptr)
    cfg.degrade.policy = faults::parse_degrade_policy(c.degrade);
  cfg.degrade.stale_limit = c.stale_limit;
  return cfg;
}

std::string render_trace(const ExperimentConfig& base) {
  ExperimentConfig cfg = base;
  std::ostringstream out;
  obs::JsonlSink sink(out);
  cfg.trace_sink = &sink;
  (void)run_experiment(cfg);
  return out.str();
}

// Points at the first differing line so a golden failure is actionable
// without a separate diff run.
void expect_same_trace(const std::string& expected,
                       const std::string& produced, const std::string& path) {
  if (expected == produced) return;
  std::istringstream a(expected), b(produced);
  std::string la, lb;
  int line = 0;
  while (true) {
    ++line;
    const bool more_a = static_cast<bool>(std::getline(a, la));
    const bool more_b = static_cast<bool>(std::getline(b, lb));
    if (!more_a && !more_b) break;
    if (la != lb || more_a != more_b) {
      FAIL() << "trace differs from " << path << " at line " << line
             << "\n  golden:   " << (more_a ? la : "<eof>")
             << "\n  produced: " << (more_b ? lb : "<eof>")
             << "\nIf the change is intentional, run tools/regen_golden.sh "
                "and review the diff.";
    }
  }
  FAIL() << "traces differ from " << path
         << " (byte-level difference with identical lines?)";
}

class TraceGoldenTest : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(TraceGoldenTest, MatchesGoldenFile) {
  const GoldenCase& c = GetParam();
  const std::string produced = render_trace(make_config(c));
  ASSERT_FALSE(produced.empty());
  const std::string path =
      std::string(EUCON_GOLDEN_DIR) + "/" + c.name + ".jsonl";

  if (std::getenv("EUCON_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << produced;
    out.close();
    ASSERT_TRUE(out.good()) << "failed writing " << path;
    GTEST_SKIP() << "regenerated " << path;
  }

  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden file " << path
                         << " — run tools/regen_golden.sh to create it";
  std::ostringstream buf;
  buf << in.rdbuf();
  expect_same_trace(buf.str(), produced, path);
}

INSTANTIATE_TEST_SUITE_P(Golden, TraceGoldenTest, ::testing::ValuesIn(kCases),
                         [](const ::testing::TestParamInfo<GoldenCase>& info) {
                           return std::string(info.param.name);
                         });

// The golden traces are only trustworthy if rendering is a pure function
// of the config — pin that property right next to the files.
TEST(TraceGoldenTest, RenderingIsPure) {
  const ExperimentConfig cfg = make_config(kCases[0]);
  EXPECT_EQ(render_trace(cfg), render_trace(cfg));
}

}  // namespace
}  // namespace eucon
