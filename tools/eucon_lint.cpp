// eucon_lint — the project's static checker CLI.
//
// All analysis lives in src/analysis (tokenizer, rule engine, the
// interprocedural call graph behind the *-in-realtime rules, output); this
// file only parses flags and moves bytes. Finding paths are reported
// relative to the enclosing repository root, so the output is identical no
// matter where the tool is invoked from. See docs/quality.md for the rule
// catalogue, the suppression syntax and the EUCON_REALTIME contract.
//
//   eucon_lint [--list-rules] [--selftest DIR] PATH...
//
// Exit codes: 0 no findings, 1 findings (or selftest mismatch), 2 usage or
// I/O errors. A typo'd path is exit 2, never "0 findings".
#include <fstream>
#include <iostream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/output.h"
#include "analysis/rules.h"

namespace fs = std::filesystem;
using namespace eucon::analysis;

namespace {

constexpr const char* kUsage =
    "usage: eucon_lint [--list-rules] [--selftest DIR] PATH...\n";

void print_rules() {
  for (const RuleInfo& r : rule_registry())
    std::cout << r.name << " — " << r.description << '\n';
}

// Self-test mode: lints DIR and compares the findings against
// DIR/expected.txt (lines of "<filename>:<line>:<rule>", '#' comments).
// Exit 0 iff they match exactly — wired into ctest so a rule regression
// fails the suite.
int run_selftest(const fs::path& dir) {
  const fs::path expected_path = dir / "expected.txt";
  std::ifstream in(expected_path);
  if (!in) {
    std::cerr << "selftest: cannot open " << expected_path << '\n';
    return 2;
  }
  std::set<std::string> expected;
  std::string line;
  while (std::getline(in, line)) {
    line.erase(0, line.find_first_not_of(" \t"));
    if (line.empty() || line[0] == '#') continue;
    line.erase(line.find_last_not_of(" \t\r") + 1);
    expected.insert(line);
  }

  std::set<std::string> actual;
  for (const Finding& f : run_lint({dir})) {
    std::ostringstream key;
    key << fs::path(f.file).filename().string() << ':' << f.line << ':'
        << f.rule;
    actual.insert(key.str());
  }

  int mismatches = 0;
  for (const std::string& e : expected) {
    if (!actual.count(e)) {
      std::cerr << "selftest: expected finding not produced: " << e << '\n';
      ++mismatches;
    }
  }
  for (const std::string& a : actual) {
    if (!expected.count(a)) {
      std::cerr << "selftest: unexpected finding: " << a << '\n';
      ++mismatches;
    }
  }
  if (mismatches == 0) {
    std::cout << "selftest OK: " << expected.size() << " finding(s) matched\n";
    return 0;
  }
  std::cerr << "selftest FAILED: " << mismatches << " mismatch(es)\n";
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<fs::path> roots;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--list-rules") {
      print_rules();
      return 0;
    } else if (arg == "--selftest") {
      if (i + 1 >= argc) {
        std::cerr << "--selftest requires a directory argument\n";
        return 2;
      }
      return run_selftest(argv[i + 1]);
    } else if (arg == "--help" || arg == "-h") {
      std::cout << kUsage;
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "unknown flag: " << arg << '\n';
      return 2;
    } else {
      roots.emplace_back(arg);
    }
  }
  if (roots.empty()) {
    std::cerr << kUsage;
    return 2;
  }
  for (const fs::path& r : roots) {
    if (!fs::exists(r)) {
      // A typo'd path must not read as "0 findings" in CI.
      std::cerr << "no such file or directory: " << r.string() << '\n';
      return 2;
    }
  }

  std::vector<Finding> findings = run_lint(roots);
  normalize_paths(findings);
  // Re-sort on the normalized paths: absolute vs relative spellings of the
  // roots must not leak into the report's order.
  sort_findings(findings);
  std::cout << render_text(findings) << findings.size() << " finding(s)\n";
  return findings.empty() ? 0 : 1;
}
