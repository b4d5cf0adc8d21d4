// Trace determinism: an identical (config, seed) pair must produce
// byte-identical JSONL traces — across consecutive runs in one process and
// between run_batch's serial and pooled paths. This is the property that
// makes the golden suite meaningful and run_batch a drop-in for loops of
// run_experiment.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "eucon/eucon.h"

namespace eucon {
namespace {

std::vector<ExperimentSpec> batch_specs() {
  std::vector<ExperimentSpec> specs;
  const double etfs[] = {0.6, 1.0, 1.4};
  for (std::size_t i = 0; i < 3; ++i) {
    ExperimentConfig cfg;
    cfg.spec = workloads::simple();
    cfg.mpc = workloads::simple_controller_params();
    cfg.sim.etf = rts::EtfProfile::constant(etfs[i]);
    cfg.sim.jitter = 0.15;
    cfg.sim.seed = 1000 + i;
    cfg.num_periods = 25;
    // Loss on one run so the lanes' RNG stream is covered too.
    if (i == 1) cfg.report_loss_probability = 0.2;
    specs.push_back({"det-" + std::to_string(i), cfg});
  }
  return specs;
}

std::string render_once(const ExperimentConfig& base) {
  ExperimentConfig cfg = base;
  std::ostringstream out;
  obs::JsonlSink sink(out);
  cfg.trace_sink = &sink;
  (void)run_experiment(cfg);
  return out.str();
}

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot read " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

TEST(TraceDeterminismTest, ConsecutiveRunsAreByteIdentical) {
  for (const ExperimentSpec& spec : batch_specs()) {
    const std::string first = render_once(spec.config);
    const std::string second = render_once(spec.config);
    ASSERT_FALSE(first.empty());
    EXPECT_EQ(first, second) << "run " << spec.name << " is not reproducible";
  }
}

TEST(TraceDeterminismTest, SerialAndPooledBatchTracesAreByteIdentical) {
  const std::vector<ExperimentSpec> specs = batch_specs();
  const std::filesystem::path base =
      std::filesystem::path(::testing::TempDir()) / "eucon_trace_det";
  const std::filesystem::path serial_dir = base / "serial";
  const std::filesystem::path pooled_dir = base / "pooled";
  std::filesystem::remove_all(base);

  BatchOptions serial;
  serial.serial = true;
  serial.trace_dir = serial_dir.string();
  obs::Registry serial_metrics;
  serial.metrics = &serial_metrics;
  (void)run_batch(specs, serial);

  BatchOptions pooled;
  pooled.num_workers = 2;
  pooled.trace_dir = pooled_dir.string();
  obs::Registry pooled_metrics;
  pooled.metrics = &pooled_metrics;
  (void)run_batch(specs, pooled);

  for (std::size_t i = 0; i < specs.size(); ++i) {
    const std::string file = batch_trace_file_name(i, specs[i].name);
    const std::string a = read_file(serial_dir / file);
    const std::string b = read_file(pooled_dir / file);
    ASSERT_FALSE(a.empty()) << file;
    EXPECT_EQ(a, b) << "serial and pooled traces differ for " << file;
  }

  // Counter totals are scheduling-independent too (timer durations are
  // wall-clock and legitimately differ; counters must not).
  EXPECT_EQ(serial_metrics.snapshot().counters,
            pooled_metrics.snapshot().counters);

  std::filesystem::remove_all(base);
}

TEST(TraceDeterminismTest, BatchFileNamesAreStableAndSanitized) {
  EXPECT_EQ(batch_trace_file_name(0, ""), "run-0000.jsonl");
  EXPECT_EQ(batch_trace_file_name(7, "etf sweep/0.5"),
            "run-0007-etf_sweep_0.5.jsonl");
  EXPECT_EQ(batch_trace_file_name(12, "A_b-c.9"), "run-0012-A_b-c.9.jsonl");
}

}  // namespace
}  // namespace eucon
