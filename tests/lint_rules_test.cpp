// Unit tests for the eucon_lint rule engine (src/analysis/rules.h): one
// positive and one negative case per concurrency rule, and suppression
// behavior. Sources are linted in memory via lint_source — no subprocess,
// no temp files.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "analysis/output.h"
#include "analysis/rules.h"

namespace ea = eucon::analysis;

namespace {

std::vector<std::string> rules_of(const std::vector<ea::Finding>& findings) {
  std::vector<std::string> out;
  for (const ea::Finding& f : findings) out.push_back(f.rule);
  return out;
}

bool has_rule(const std::vector<ea::Finding>& findings,
              const std::string& rule) {
  return std::any_of(findings.begin(), findings.end(),
                     [&](const ea::Finding& f) { return f.rule == rule; });
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

// The test name stays stable when the registry changes size; it holds 14.
TEST(LintRegistryTest, AllSeventeenRulesRegistered) {
  EXPECT_EQ(ea::rule_registry().size(), 14u);
  for (const char* name :
       {"raw-assert", "float-equality", "banned-random",
        "using-namespace-header", "missing-pragma-once", "raw-throw",
        "narrowing-size-cast", "locked-field-access", "detached-thread",
        "blocking-in-callback", "nondeterministic-parallel",
        "allocation-in-realtime", "blocking-in-realtime",
        "nondeterminism-in-realtime"})
    EXPECT_TRUE(ea::known_rule(name)) << name;
  EXPECT_FALSE(ea::known_rule("no-such-rule"));
}

// ---------------------------------------------------------------------------
// locked-field-access
// ---------------------------------------------------------------------------

TEST(LockedFieldAccessTest, FiresOnUnlockedAccess) {
  const auto f = ea::lint_source("a.cpp",
                                 "struct S {\n"
                                 "  void bump() { ++n_; }\n"
                                 "  Mutex mu_;\n"
                                 "  int n_ EUCON_GUARDED_BY(mu_) = 0;\n"
                                 "};\n");
  ASSERT_TRUE(has_rule(f, "locked-field-access"));
  EXPECT_EQ(f[0].line, 2u);
}

TEST(LockedFieldAccessTest, SilentUnderRaiiLockOrRequires) {
  const auto f = ea::lint_source(
      "a.cpp",
      "struct S {\n"
      "  void bump() { const MutexLock lock(mu_); ++n_; }\n"
      "  void bump2() EUCON_REQUIRES(mu_) { ++n_; }\n"
      "  void bump3() { std::lock_guard<std::mutex> g(mu_); ++n_; }\n"
      "  Mutex mu_;\n"
      "  int n_ EUCON_GUARDED_BY(mu_) = 0;\n"
      "};\n");
  EXPECT_FALSE(has_rule(f, "locked-field-access")) << ea::render_text(f);
}

TEST(LockedFieldAccessTest, LockReleaseEndsWithScope) {
  const auto f = ea::lint_source("a.cpp",
                                 "struct S {\n"
                                 "  void bump() {\n"
                                 "    { const MutexLock lock(mu_); ++n_; }\n"
                                 "    ++n_;\n"
                                 "  }\n"
                                 "  Mutex mu_;\n"
                                 "  int n_ EUCON_GUARDED_BY(mu_) = 0;\n"
                                 "};\n");
  ASSERT_TRUE(has_rule(f, "locked-field-access"));
  EXPECT_EQ(f[0].line, 4u);
}

TEST(LockedFieldAccessTest, CompanionHeaderDisciplineApplies) {
  const std::string header =
      "struct S {\n"
      "  void locked() EUCON_REQUIRES(mu_);\n"
      "  void unlocked();\n"
      "  Mutex mu_;\n"
      "  int n_ EUCON_GUARDED_BY(mu_) = 0;\n"
      "};\n";
  const std::string good = "void S::locked() { ++n_; }\n";
  const std::string bad = "void S::unlocked() { ++n_; }\n";
  EXPECT_FALSE(has_rule(ea::lint_source("s.cpp", good, header),
                        "locked-field-access"));
  EXPECT_TRUE(has_rule(ea::lint_source("s.cpp", bad, header),
                       "locked-field-access"));
}

TEST(LockedFieldAccessTest, ManualLockUnlockTracked) {
  const auto f = ea::lint_source("a.cpp",
                                 "struct S {\n"
                                 "  void bump() {\n"
                                 "    mu_.lock();\n"
                                 "    ++n_;\n"
                                 "    mu_.unlock();\n"
                                 "    ++n_;\n"
                                 "  }\n"
                                 "  Mutex mu_;\n"
                                 "  int n_ EUCON_GUARDED_BY(mu_) = 0;\n"
                                 "};\n");
  ASSERT_EQ(rules_of(f),
            (std::vector<std::string>{"locked-field-access"}));
  EXPECT_EQ(f[0].line, 6u);
}

// ---------------------------------------------------------------------------
// detached-thread
// ---------------------------------------------------------------------------

TEST(DetachedThreadTest, FiresOnRawThreadAndDetach) {
  const auto f = ea::lint_source(
      "a.cpp", "void go() { std::thread t([]{}); t.detach(); }\n");
  EXPECT_EQ(rules_of(f), (std::vector<std::string>{"detached-thread",
                                                   "detached-thread"}));
}

TEST(DetachedThreadTest, SilentOnStaticMembersAndOwners) {
  EXPECT_TRUE(ea::lint_source(
                  "a.cpp",
                  "unsigned n() { return std::thread::hardware_concurrency(); }\n")
                  .empty());
  // The pool implementation itself is exempt.
  EXPECT_TRUE(ea::lint_source("common/thread_pool.cpp",
                              "void f() { std::thread t([]{}); }\n")
                  .empty());
}

// ---------------------------------------------------------------------------
// blocking-in-callback
// ---------------------------------------------------------------------------

TEST(BlockingInCallbackTest, FiresInsideSubmittedLambda) {
  const auto f = ea::lint_source(
      "a.cpp",
      "void go(ThreadPool& p, std::future<int>& other) {\n"
      "  p.submit([&] { other.wait(); });\n"
      "  p.submit([] { std::this_thread::sleep_for(ms(1)); });\n"
      "}\n");
  EXPECT_EQ(rules_of(f), (std::vector<std::string>{"blocking-in-callback",
                                                   "blocking-in-callback"}));
}

TEST(BlockingInCallbackTest, SilentOnCallerSideBlocking) {
  const auto f = ea::lint_source("a.cpp",
                                 "int go(ThreadPool& p) {\n"
                                 "  auto fut = p.submit([] { return 1; });\n"
                                 "  return fut.get();\n"
                                 "}\n");
  EXPECT_TRUE(f.empty()) << ea::render_text(f);
}

// ---------------------------------------------------------------------------
// nondeterministic-parallel
// ---------------------------------------------------------------------------

TEST(NondeterministicParallelTest, FiresOnStaticRngAndRandomDevice) {
  EXPECT_TRUE(has_rule(
      ea::lint_source("a.cpp", "int r() { static std::mt19937 g(1); return 0; }\n"),
      "nondeterministic-parallel"));
  EXPECT_TRUE(has_rule(
      ea::lint_source("a.cpp", "int r() { thread_local Rng rng(1); return 0; }\n"),
      "nondeterministic-parallel"));
  EXPECT_TRUE(has_rule(
      ea::lint_source("a.cpp", "int r() { std::random_device rd; return 0; }\n"),
      "nondeterministic-parallel"));
}

TEST(NondeterministicParallelTest, SilentOnSeededStreamsAndFactories) {
  const auto f = ea::lint_source(
      "a.cpp",
      "int a(eucon::Rng& rng) { return rng.next_int(); }\n"
      "struct F { static Rng make(std::uint64_t seed); };\n"
      "static const Rng kFixed(7);\n");
  EXPECT_TRUE(f.empty()) << ea::render_text(f);
}

// ---------------------------------------------------------------------------
// Suppressions
// ---------------------------------------------------------------------------

TEST(SuppressionTest, AllowSilencesNamedRuleOnThatLineOnly) {
  const auto f = ea::lint_source(
      "a.cpp",
      "void go() {\n"
      "  std::thread a([]{});  // eucon-lint: allow(detached-thread)\n"
      "  std::thread b([]{});\n"
      "}\n");
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0].line, 3u);
}

TEST(SuppressionTest, UnknownRuleNameIsItselfAFinding) {
  const auto f = ea::lint_source(
      "a.cpp", "int x;  // eucon-lint: allow(not-a-rule)\n");
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0].rule, "unknown-suppression");
}

// ---------------------------------------------------------------------------
// Style rules through the v2 engine (regression: comments/strings inert)
// ---------------------------------------------------------------------------

TEST(StyleRegressionTest, CommentAndStringBodiesNeverFire) {
  const auto f = ea::lint_source(
      "a.cpp",
      "// assert(1) throw rand() x == 0.0 std::thread t;\n"
      "const char* s = \"assert(1) throw time(nullptr)\";\n"
      "const char* r = R\"(static std::mt19937 g; rd.detach();)\";\n");
  EXPECT_TRUE(f.empty()) << ea::render_text(f);
}

TEST(StyleRegressionTest, HeaderRulesStillFire) {
  const auto f = ea::lint_source("a.h", "using namespace std;\n");
  EXPECT_EQ(rules_of(f), (std::vector<std::string>{
                             "missing-pragma-once", "using-namespace-header"}));
}

}  // namespace
