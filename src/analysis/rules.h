// The eucon_lint rule engine: file contexts, the rule registry, and the
// lint entry points shared by the CLI (tools/eucon_lint.cpp) and the unit
// tests (which lint in-memory sources directly, no subprocess).
//
// Rules run over the token stream from analysis/lexer.h. Suppressions are
// parsed from comment tokens — `// eucon-lint: allow(raw-assert, raw-throw)`
// disables those rules for findings on the comment's line, and a
// suppression naming an unknown rule is itself a finding
// (unknown-suppression), so annotations cannot rot silently.
//
// Adding a rule: implement a `void rule(FileContext&)` in style_rules.cpp
// or concurrency_rules.cpp, report through FileContext::report (which
// applies suppressions), and register the name + description in
// rule_registry() in rules.cpp. docs/quality.md walks through an example.
#pragma once

#include <filesystem>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "analysis/lexer.h"

namespace eucon::analysis {

struct Finding {
  std::string file;
  std::size_t line = 0;
  std::size_t col = 0;
  std::string rule;
  std::string message;
};

struct RuleInfo {
  const char* name;
  const char* description;
};

// All rules, in reporting order. The registry is the single source of
// truth: --list-rules prints it, and suppressions are checked against it.
const std::vector<RuleInfo>& rule_registry();
bool known_rule(const std::string& name);

// Everything a rule sees about one file.
struct FileContext {
  std::string file;  // display path, used verbatim in findings
  bool header = false;
  // common/check.h is the sanctioned home of throw/assert machinery; the
  // code-pattern rules skip it (missing-pragma-once still applies).
  bool check_header = false;
  // common/thread_pool.* and common/mutex.h own the raw threading
  // primitives; detached-thread does not apply to them.
  bool thread_owner = false;

  std::vector<Token> tokens;  // full stream, comments and directives included
  std::vector<Token> code;    // comments stripped (directives kept)

  // Header-declared lock discipline, visible to rules linting a .cpp file:
  // field -> guarding mutex from EUCON_GUARDED_BY, and method -> required
  // mutexes from EUCON_REQUIRES. Populated from this file and, for a .cpp,
  // from its same-directory companion header.
  std::map<std::string, std::string> guarded_fields;
  std::map<std::string, std::set<std::string>> required_mutexes;

  // Reports unless `rule` is allow()'d on `line`.
  void report(std::size_t line, std::size_t col, const std::string& rule,
              const std::string& message);

  std::vector<Finding>* findings = nullptr;
  std::map<std::size_t, std::set<std::string>> allowed;  // line -> rules
};

// The rule sets (style_rules.cpp / concurrency_rules.cpp).
void run_style_rules(FileContext& ctx);
void run_concurrency_rules(FileContext& ctx);

// Mines EUCON_GUARDED_BY / EUCON_REQUIRES declarations out of a token
// stream into the discipline maps (also used on a .cpp's companion header).
void collect_lock_discipline(
    const std::vector<Token>& code,
    std::map<std::string, std::string>& guarded_fields,
    std::map<std::string, std::set<std::string>>& required_mutexes);

// Lints one in-memory source. `display_path` drives the header/exemption
// flags exactly as an on-disk path would; `companion_header` optionally
// supplies the header text a .cpp's lock-discipline context is mined from.
std::vector<Finding> lint_source(const std::string& display_path,
                                 const std::string& content,
                                 const std::string& companion_header = "");

// Lints one file from disk (loading the companion header if present).
std::vector<Finding> lint_file(const std::filesystem::path& path);

// Walks the roots (files or directories; build*/.git/lint_selftest skipped),
// lints every .h/.hpp/.cpp/.cc, and returns findings sorted by position.
std::vector<Finding> run_lint(const std::vector<std::filesystem::path>& roots);

}  // namespace eucon::analysis
