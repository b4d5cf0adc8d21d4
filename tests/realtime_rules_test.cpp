// Unit tests for the realtime rule family (allocation-in-realtime,
// blocking-in-realtime, nondeterminism-in-realtime): positive and negative
// cases per rule, transitive propagation with the call chain in the
// message, EUCON_*_OK trust boundaries, line-level suppression, and
// determinism of the report across file orders. Sources are linted in
// memory via lint_source, or fed to one CallGraph for the multi-file case.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "analysis/callgraph.h"
#include "analysis/lexer.h"
#include "analysis/output.h"
#include "analysis/rules.h"

namespace ea = eucon::analysis;

namespace {

std::vector<ea::Finding> findings_for(const std::vector<ea::Finding>& all,
                                      const std::string& rule) {
  std::vector<ea::Finding> out;
  for (const ea::Finding& f : all)
    if (f.rule == rule) out.push_back(f);
  return out;
}

// Tokenizes each (path, source) pair into one call graph, in the given
// order, and returns its sorted realtime findings — the shape run_lint
// feeds from real files.
std::vector<ea::Finding> realtime_findings(
    const std::vector<std::pair<std::string, std::string>>& files) {
  ea::CallGraph g;
  for (const auto& [path, src] : files) {
    std::vector<ea::Token> code;
    for (ea::Token& t : ea::tokenize(src))
      if (t.kind != ea::TokenKind::kComment) code.push_back(std::move(t));
    g.add_file(path, code, {});
  }
  g.finalize();
  std::vector<ea::Finding> out = g.check_realtime();
  ea::sort_findings(out);
  return out;
}

// ---------------------------------------------------------------------------
// allocation-in-realtime
// ---------------------------------------------------------------------------

TEST(RealtimeAllocTest, FiresOnDirectAllocation) {
  const auto all = ea::lint_source("a.cpp",
                                   "void tick() EUCON_REALTIME {\n"
                                   "  double* p = new double[3];\n"
                                   "}\n");
  const auto f = findings_for(all, "allocation-in-realtime");
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0].line, 2u);
  EXPECT_NE(f[0].message.find("'new'"), std::string::npos);
  EXPECT_NE(f[0].message.find("tick"), std::string::npos);
}

TEST(RealtimeAllocTest, FiresOnContainerGrowthTransitively) {
  const auto all = ea::lint_source("a.cpp",
                                   "struct Buf {\n"
                                   "  void grow() { v_.push_back(1.0); }\n"
                                   "  std::vector<double> v_;\n"
                                   "};\n"
                                   "void helper(Buf& b) { b.grow(); }\n"
                                   "void tick(Buf& b) EUCON_REALTIME {\n"
                                   "  helper(b);\n"
                                   "}\n");
  const auto f = findings_for(all, "allocation-in-realtime");
  ASSERT_EQ(f.size(), 1u);
  // The finding lands on the offending site with the full chain.
  EXPECT_EQ(f[0].line, 2u);
  EXPECT_NE(f[0].message.find("tick -> helper -> Buf::grow"),
            std::string::npos)
      << f[0].message;
}

TEST(RealtimeAllocTest, AllocOkHatchIsATrustBoundary) {
  const auto all = ea::lint_source(
      "a.cpp",
      "void helper() EUCON_ALLOC_OK(\"amortized\") {\n"
      "  double* p = new double[3];\n"
      "}\n"
      "void tick() EUCON_REALTIME { helper(); }\n");
  EXPECT_TRUE(findings_for(all, "allocation-in-realtime").empty());
}

TEST(RealtimeAllocTest, CleanFunctionProducesNoFindings) {
  const auto all = ea::lint_source("a.cpp",
                                   "double tick(double x) EUCON_REALTIME {\n"
                                   "  double acc = 0.0;\n"
                                   "  for (int i = 0; i < 4; ++i) acc += x;\n"
                                   "  return acc;\n"
                                   "}\n");
  EXPECT_TRUE(findings_for(all, "allocation-in-realtime").empty());
  EXPECT_TRUE(findings_for(all, "blocking-in-realtime").empty());
  EXPECT_TRUE(findings_for(all, "nondeterminism-in-realtime").empty());
}

TEST(RealtimeAllocTest, UnannotatedFunctionIsNotARoot) {
  const auto all = ea::lint_source("a.cpp",
                                   "void not_realtime() {\n"
                                   "  double* p = new double[3];\n"
                                   "}\n");
  EXPECT_TRUE(findings_for(all, "allocation-in-realtime").empty());
}

// ---------------------------------------------------------------------------
// blocking-in-realtime
// ---------------------------------------------------------------------------

TEST(RealtimeBlockTest, FiresOnLockAndThrow) {
  const auto all = ea::lint_source("a.cpp",
                                   "void tick() EUCON_REALTIME {\n"
                                   "  mu_.lock();\n"
                                   "  throw 1;\n"
                                   "}\n");
  const auto f = findings_for(all, "blocking-in-realtime");
  ASSERT_EQ(f.size(), 2u);
  EXPECT_EQ(f[0].line, 2u);
  EXPECT_EQ(f[1].line, 3u);
}

TEST(RealtimeBlockTest, FiresOnRaiiLockConstruction) {
  const auto all = ea::lint_source("a.cpp",
                                   "void tick() EUCON_REALTIME {\n"
                                   "  MutexLock l(mu_);\n"
                                   "  std::lock_guard<std::mutex> g(m);\n"
                                   "}\n");
  const auto f = findings_for(all, "blocking-in-realtime");
  ASSERT_EQ(f.size(), 2u);
  EXPECT_EQ(f[0].line, 2u);
  EXPECT_NE(f[0].message.find("'MutexLock' acquires a lock"),
            std::string::npos)
      << f[0].message;
  EXPECT_EQ(f[1].line, 3u);
  EXPECT_NE(f[1].message.find("'lock_guard' acquires a lock"),
            std::string::npos)
      << f[1].message;
}

TEST(RealtimeBlockTest, FiresOnSleepTransitively) {
  const auto all = ea::lint_source(
      "a.cpp",
      "void pause_a_bit() { std::this_thread::sleep_for(10ms); }\n"
      "void tick() EUCON_REALTIME { pause_a_bit(); }\n");
  const auto f = findings_for(all, "blocking-in-realtime");
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0].line, 1u);
  EXPECT_NE(f[0].message.find("tick -> pause_a_bit"), std::string::npos);
}

TEST(RealtimeBlockTest, BlockOkHatchSilencesOnlyBlocking) {
  const auto all = ea::lint_source(
      "a.cpp",
      "void helper() EUCON_BLOCK_OK(\"uncontended\") {\n"
      "  mu_.lock();\n"
      "  double* p = new double[3];\n"
      "}\n"
      "void tick() EUCON_REALTIME { helper(); }\n");
  EXPECT_TRUE(findings_for(all, "blocking-in-realtime").empty());
  // The hatch covers one category; the allocation still surfaces.
  EXPECT_EQ(findings_for(all, "allocation-in-realtime").size(), 1u);
}

// ---------------------------------------------------------------------------
// nondeterminism-in-realtime
// ---------------------------------------------------------------------------

TEST(RealtimeNondetTest, FiresOnClockAndRand) {
  const auto all = ea::lint_source(
      "a.cpp",
      "void tick() EUCON_REALTIME {\n"
      "  auto t = std::chrono::steady_clock::now();\n"
      "  int r = rand();\n"
      "}\n");
  const auto f = findings_for(all, "nondeterminism-in-realtime");
  ASSERT_EQ(f.size(), 2u);
}

TEST(RealtimeNondetTest, HatchOnRootSilencesTheCategory) {
  const auto all = ea::lint_source(
      "a.cpp",
      "void tick() EUCON_REALTIME EUCON_NONDET_OK(\"measurement\") {\n"
      "  auto t = std::chrono::steady_clock::now();\n"
      "}\n");
  EXPECT_TRUE(findings_for(all, "nondeterminism-in-realtime").empty());
}

// ---------------------------------------------------------------------------
// Suppression and cross-root dedup
// ---------------------------------------------------------------------------

TEST(RealtimeSuppressionTest, AllowCommentSuppressesTheSite) {
  const auto all = ea::lint_source(
      "a.cpp",
      "void tick() EUCON_REALTIME {\n"
      "  double* p = new double[3];  "
      "// eucon-lint: allow(allocation-in-realtime)\n"
      "}\n");
  EXPECT_TRUE(findings_for(all, "allocation-in-realtime").empty());
}

TEST(RealtimeSuppressionTest, SharedHelperReportedOncePerSite) {
  const auto all = ea::lint_source(
      "a.cpp",
      "void helper() { double* p = new double[3]; }\n"
      "void tick_a() EUCON_REALTIME { helper(); }\n"
      "void tick_b() EUCON_REALTIME { helper(); }\n");
  // Two roots reach the same site; one finding, first root in name order.
  const auto f = findings_for(all, "allocation-in-realtime");
  ASSERT_EQ(f.size(), 1u);
  EXPECT_NE(f[0].message.find("tick_a -> helper"), std::string::npos)
      << f[0].message;
}

// ---------------------------------------------------------------------------
// Multi-file determinism
// ---------------------------------------------------------------------------

TEST(RealtimeDeterminismTest, ReportIndependentOfAddFileOrder) {
  // Roots in f1 and f2 reach a helper in f3 that allocates and sleeps; f3
  // also holds a clock read that only tick_b reaches.
  const std::string f1 = "void tick_a() EUCON_REALTIME { helper(); }\n";
  const std::string f2 =
      "void tick_b() EUCON_REALTIME { stamp(); helper(); }\n";
  const std::string f3 =
      "std::vector<double> buf;\n"
      "void helper() {\n"
      "  buf.push_back(1.0);\n"
      "  std::this_thread::sleep_for(d);\n"
      "}\n"
      "void stamp() { t0 = std::chrono::steady_clock::now(); helper(); }\n";
  const auto forward =
      realtime_findings({{"f1.cpp", f1}, {"f2.cpp", f2}, {"f3.cpp", f3}});
  const auto backward =
      realtime_findings({{"f3.cpp", f3}, {"f2.cpp", f2}, {"f1.cpp", f1}});
  ASSERT_EQ(forward.size(), 3u);
  ASSERT_EQ(backward.size(), forward.size());
  for (std::size_t i = 0; i < forward.size(); ++i) {
    EXPECT_EQ(forward[i].file, backward[i].file);
    EXPECT_EQ(forward[i].line, backward[i].line);
    EXPECT_EQ(forward[i].col, backward[i].col);
    EXPECT_EQ(forward[i].rule, backward[i].rule);
    // Byte-identical messages: the chains must not depend on insertion
    // order either.
    EXPECT_EQ(forward[i].message, backward[i].message);
  }
  EXPECT_EQ(forward[0].rule, "allocation-in-realtime");
  EXPECT_NE(forward[0].message.find("tick_a -> helper"), std::string::npos)
      << forward[0].message;
  EXPECT_EQ(forward[1].rule, "blocking-in-realtime");
  EXPECT_NE(forward[1].message.find("tick_a -> helper"), std::string::npos)
      << forward[1].message;
  EXPECT_EQ(forward[2].rule, "nondeterminism-in-realtime");
  EXPECT_NE(forward[2].message.find("tick_b -> stamp"), std::string::npos)
      << forward[2].message;
}

// ---------------------------------------------------------------------------
// Lexer regressions inside realtime bodies (digit separators, prefixed
// literals) — the extractor must not misparse these into call names.
// ---------------------------------------------------------------------------

TEST(RealtimeLexerTest, DigitSeparatorsAndPrefixedLiteralsParse) {
  const auto all = ea::lint_source(
      "a.cpp",
      "const char* tick() EUCON_REALTIME {\n"
      "  long budget = 1'000'000;\n"
      "  const char* s = u8\"nano\";\n"
      "  const char* r = R\"(raw (paren) body)\";\n"
      "  (void)budget;\n"
      "  return s != nullptr ? s : r;\n"
      "}\n");
  EXPECT_TRUE(findings_for(all, "allocation-in-realtime").empty());
  EXPECT_TRUE(findings_for(all, "blocking-in-realtime").empty());
  EXPECT_TRUE(findings_for(all, "nondeterminism-in-realtime").empty());
}

}  // namespace
