// Unit tests for the observability layer: the counter/timer registry, the
// OBS_TIMED macro, the JSONL encoders, and the sink implementations.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <future>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "obs/registry.h"
#include "obs/trace.h"

namespace eucon::obs {
namespace {

TEST(RegistryTest, CountersStartAtZeroAndAccumulate) {
  Registry reg;
  EXPECT_EQ(reg.counter("x"), 0u);
  reg.add("x");
  reg.add("x", 4);
  EXPECT_EQ(reg.counter("x"), 5u);
  EXPECT_EQ(reg.counter("never_touched"), 0u);
}

TEST(RegistryTest, GaugesHoldTheLastValue) {
  Registry reg;
  EXPECT_EQ(reg.gauge("g"), 0.0);
  reg.set_gauge("g", 1.5);
  reg.set_gauge("g", -2.25);
  EXPECT_EQ(reg.gauge("g"), -2.25);
}

TEST(RegistryTest, TimerStatsTrackCountTotalMinMax) {
  Registry reg;
  reg.record_duration_ns("t", 100);
  reg.record_duration_ns("t", 300);
  reg.record_duration_ns("t", 200);
  const TimerStats t = reg.timer("t");
  EXPECT_EQ(t.count, 3u);
  EXPECT_EQ(t.total_ns, 600u);
  EXPECT_EQ(t.min_ns, 100u);
  EXPECT_EQ(t.max_ns, 300u);
  EXPECT_DOUBLE_EQ(t.mean_us(), 0.2);
  EXPECT_EQ(reg.timer("absent").count, 0u);
}

TEST(RegistryTest, SnapshotAndClear) {
  Registry reg;
  reg.add("c", 2);
  reg.set_gauge("g", 3.0);
  reg.record_duration_ns("t", 50);
  const Snapshot snap = reg.snapshot();
  EXPECT_EQ(snap.counters.at("c"), 2u);
  EXPECT_EQ(snap.gauges.at("g"), 3.0);
  EXPECT_EQ(snap.timers.at("t").count, 1u);
  reg.clear();
  EXPECT_TRUE(reg.snapshot().counters.empty());
  EXPECT_EQ(reg.counter("c"), 0u);
}

TEST(RegistryTest, ConcurrentAddsAreExact) {
  // The registry is the one obs object shared across run_batch workers; a
  // lost update here would silently corrupt batch totals.
  Registry reg;
  constexpr int kThreads = 4;
  constexpr int kAddsPerThread = 5000;
  ThreadPool pool(kThreads);
  std::vector<std::future<void>> futures;
  futures.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    futures.push_back(pool.submit([&reg] {
      for (int j = 0; j < kAddsPerThread; ++j) {
        reg.add("shared");
        reg.record_duration_ns("shared_timer", 10);
      }
    }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(reg.counter("shared"),
            static_cast<std::uint64_t>(kThreads) * kAddsPerThread);
  EXPECT_EQ(reg.timer("shared_timer").count,
            static_cast<std::uint64_t>(kThreads) * kAddsPerThread);
}

TEST(ScopedTimerTest, NullRegistryRecordsNothingAndIsSafe) {
  // The disabled path: no registry, no clock reads, no allocation. Must be
  // usable exactly like the live path.
  ScopedTimer t(nullptr, "ignored");
  OBS_TIMED(static_cast<Registry*>(nullptr), "also_ignored");
  SUCCEED();
}

TEST(ScopedTimerTest, RecordsOneSampleOnScopeExit) {
  Registry reg;
  {
    OBS_TIMED(&reg, "scope");
  }
  EXPECT_EQ(reg.timer("scope").count, 1u);
}

TEST(TraceEncodingTest, RunInfoJsonlIsByteStable) {
  RunInfo info;
  info.name = "case \"a\"";
  info.controller = "EUCON";
  info.seed = 42;
  info.num_periods = 3;
  info.num_processors = 2;
  info.num_tasks = 5;
  info.set_points = {0.5, 0.25};
  EXPECT_EQ(to_jsonl(info),
            "{\"type\":\"run\",\"name\":\"case \\\"a\\\"\",\"controller\":"
            "\"EUCON\",\"seed\":42,\"periods\":3,\"processors\":2,\"tasks\":5,"
            "\"set_points\":[0.5,0.25]}");
}

TEST(TraceEncodingTest, PeriodRecordOmitsQpBlockWithoutQp) {
  PeriodRecord rec;
  rec.k = 1;
  rec.time_units = 1000.0;
  rec.u = {0.5};
  rec.u_seen = {0.5};
  rec.rates = {0.01};
  rec.delta_r = {0.0};
  rec.enabled_tasks = 1;
  const std::string line = to_jsonl(rec);
  EXPECT_EQ(line.find("\"qp\""), std::string::npos);
  EXPECT_NE(line.find("\"type\":\"period\""), std::string::npos);
}

TEST(TraceEncodingTest, PeriodRecordWithQpBlock) {
  PeriodRecord rec;
  rec.k = 2;
  rec.time_units = 2000.0;
  rec.u = {0.5, 0.25};
  rec.u_seen = {0.5, 0.25};
  rec.rates = {0.01};
  rec.delta_r = {-0.005};
  rec.enabled_tasks = 1;
  rec.lost_reports = 1;
  rec.release_guard_stalls = 2;
  rec.qp_iterations = 3;
  rec.qp_fast_path = false;
  rec.qp_fallback = true;
  rec.qp_status = "optimal";
  rec.qp_active_set = {1, 0};
  EXPECT_EQ(to_jsonl(rec),
            "{\"type\":\"period\",\"k\":2,\"t\":2000,\"u\":[0.5,0.25],"
            "\"u_seen\":[0.5,0.25],\"r\":[0.01],\"dr\":[-0.005],\"enabled\":1,"
            "\"lost\":1,\"stalls\":2,\"qp\":{\"iters\":3,\"fast_path\":false,"
            "\"fallback\":true,\"status\":\"optimal\",\"active\":[1,0]}}");
}

TEST(TraceEncodingTest, SummaryJsonl) {
  RunSummary s;
  s.periods = 10;
  s.lost_reports = 1;
  s.controller_fallbacks = 2;
  s.qp_iterations_total = 30;
  s.qp_fast_path_hits = 4;
  s.release_guard_stalls = 5;
  s.jobs_released = 600;
  EXPECT_EQ(to_jsonl(s),
            "{\"type\":\"summary\",\"periods\":10,\"lost\":1,\"fallbacks\":2,"
            "\"qp_iters\":30,\"fast_path_hits\":4,\"stalls\":5,"
            "\"jobs_released\":600}");
}

TEST(SinkTest, MemorySinkRetainsEverything) {
  MemorySink sink;
  RunInfo info;
  info.name = "m";
  sink.begin_run(info);
  PeriodRecord rec;
  rec.k = 1;
  sink.period(rec);
  rec.k = 2;
  sink.period(rec);
  RunSummary summary;
  summary.periods = 2;
  sink.end_run(summary);
  EXPECT_EQ(sink.info().name, "m");
  ASSERT_EQ(sink.records().size(), 2u);
  EXPECT_EQ(sink.records()[1].k, 2);
  EXPECT_TRUE(sink.finished());
  EXPECT_EQ(sink.summary().periods, 2u);
}

TEST(SinkTest, JsonlSinkWritesOneLinePerRecord) {
  std::ostringstream out;
  JsonlSink sink(out);
  sink.begin_run(RunInfo{});
  sink.period(PeriodRecord{});
  sink.end_run(RunSummary{});
  const std::string text = out.str();
  int newlines = 0;
  for (char c : text)
    if (c == '\n') ++newlines;
  EXPECT_EQ(newlines, 3);
}

TEST(SinkTest, FileSinkRoundTripsThroughTheFilesystem) {
  const std::string path = testing::TempDir() + "obs_test_trace.jsonl";
  {
    FileSink sink(path);
    sink.begin_run(RunInfo{});
    sink.period(PeriodRecord{});
    sink.end_run(RunSummary{});
    EXPECT_EQ(sink.path(), path);
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  int lines = 0;
  while (std::getline(in, line)) ++lines;
  EXPECT_EQ(lines, 3);
  std::remove(path.c_str());
}

TEST(SinkTest, FileSinkThrowsOnUnwritablePath) {
  EXPECT_THROW(FileSink("/nonexistent-dir-xyz/trace.jsonl"),
               std::runtime_error);
}

TEST(SinkTest, NullSinkAcceptsTheFullProtocol) {
  NullSink sink;
  sink.begin_run(RunInfo{});
  sink.period(PeriodRecord{});
  sink.end_run(RunSummary{});
  SUCCEED();
}

}  // namespace
}  // namespace eucon::obs
