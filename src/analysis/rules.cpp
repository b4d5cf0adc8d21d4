#include "analysis/rules.h"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "analysis/callgraph.h"
#include "analysis/output.h"

namespace fs = std::filesystem;

namespace eucon::analysis {

namespace {

const std::vector<RuleInfo> kRegistry = {
    {"raw-assert", "use EUCON_ASSERT/EUCON_REQUIRE instead of assert()"},
    {"float-equality",
     "==/!= against a floating literal; compare with a tolerance"},
    {"banned-random", "std::rand/srand/time(nullptr); use common/rng.h streams"},
    {"using-namespace-header",
     "`using namespace` in a header leaks into every includer"},
    {"missing-pragma-once", "header lacks #pragma once"},
    {"raw-throw",
     "throw outside common/check.h; use EUCON_FAIL/EUCON_REQUIRE helpers"},
    {"narrowing-size-cast",
     "static_cast<int> of a size-like value; use eucon::narrow<int>"},
    {"locked-field-access",
     "EUCON_GUARDED_BY field touched in a scope that does not lock its mutex"},
    {"detached-thread",
     "std::thread::detach or raw std::thread outside common/thread_pool"},
    {"blocking-in-callback",
     "blocking call (.get()/wait()/sleep_for) inside a pooled task lambda"},
    {"nondeterministic-parallel",
     "shared/static RNG state or std::random_device; derive per-run streams"},
    {"allocation-in-realtime",
     "heap allocation reachable from an EUCON_REALTIME function"},
    {"blocking-in-realtime",
     "lock/wait/sleep/IO/throw reachable from an EUCON_REALTIME function"},
    {"nondeterminism-in-realtime",
     "rand/time/clock read reachable from an EUCON_REALTIME function"},
};

// Parses one comment token's suppression markers — e.g.
// `eucon-lint: allow(raw-assert)` — into the per-line suppression map;
// unknown rule names become findings.
void parse_suppressions(const Token& comment, FileContext& ctx) {
  const std::string marker = "eucon-lint: allow(";
  std::size_t pos = comment.text.find(marker);
  while (pos != std::string::npos) {
    // The marker's line within a multi-line block comment.
    const std::size_t line =
        comment.line +
        static_cast<std::size_t>(
            std::count(comment.text.begin(),
                       comment.text.begin() +
                           static_cast<std::ptrdiff_t>(pos), '\n'));
    const std::size_t open = pos + marker.size();
    const std::size_t close = comment.text.find(')', open);
    if (close == std::string::npos) break;
    std::istringstream names(comment.text.substr(open, close - open));
    std::string name;
    while (std::getline(names, name, ',')) {
      name.erase(0, name.find_first_not_of(" \t"));
      name.erase(name.find_last_not_of(" \t") + 1);
      if (name.empty()) continue;
      if (known_rule(name)) {
        ctx.allowed[line].insert(name);
      } else {
        ctx.findings->push_back({ctx.file, line, comment.col,
                                 "unknown-suppression",
                                 "allow() names unknown rule '" + name + "'"});
      }
    }
    pos = comment.text.find(marker, close);
  }
}

bool header_ext(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".h" || ext == ".hpp";
}

FileContext make_context(const std::string& display_path,
                         const std::string& content,
                         const std::string& companion_header,
                         std::vector<Finding>& findings) {
  const fs::path p(display_path);
  FileContext ctx;
  ctx.file = display_path;
  ctx.findings = &findings;
  ctx.header = header_ext(p);
  const std::string parent = p.parent_path().filename().string();
  ctx.check_header = p.filename() == "check.h" && parent == "common";
  ctx.thread_owner =
      parent == "common" &&
      (p.stem() == "thread_pool" || p.filename() == "mutex.h");

  ctx.tokens = tokenize(content);
  ctx.code.reserve(ctx.tokens.size());
  for (const Token& t : ctx.tokens) {
    if (t.kind == TokenKind::kComment) {
      parse_suppressions(t, ctx);
    } else {
      ctx.code.push_back(t);
    }
  }

  if (!companion_header.empty()) {
    std::vector<Token> header_code;
    for (Token& t : tokenize(companion_header))
      if (t.kind != TokenKind::kComment) header_code.push_back(std::move(t));
    collect_lock_discipline(header_code, ctx.guarded_fields,
                            ctx.required_mutexes);
  }
  collect_lock_discipline(ctx.code, ctx.guarded_fields, ctx.required_mutexes);
  return ctx;
}

bool should_skip_dir(const fs::path& dir) {
  const std::string name = dir.filename().string();
  return name == ".git" || name.rfind("build", 0) == 0 ||
         name == "lint_selftest";
}

bool lintable_file(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".h" || ext == ".hpp" || ext == ".cpp" || ext == ".cc";
}

void collect_files(const fs::path& root, std::vector<fs::path>& out) {
  if (fs::is_regular_file(root)) {
    if (lintable_file(root)) out.push_back(root);
    return;
  }
  if (!fs::is_directory(root)) return;
  std::vector<fs::path> entries;
  for (const auto& entry : fs::directory_iterator(root))
    entries.push_back(entry.path());
  std::sort(entries.begin(), entries.end());
  for (const fs::path& p : entries) {
    if (fs::is_directory(p)) {
      if (!should_skip_dir(p)) collect_files(p, out);
    } else if (lintable_file(p)) {
      out.push_back(p);
    }
  }
}

std::string read_file_or_empty(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  if (!in) return "";
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

// Feeds one already-built context into the interprocedural graph, plus the
// companion header's tokens when supplied. The companion's allow() comments
// are parsed silently (its own lint pass reports unknown-suppression when
// the header is linted as a file in its own right).
void feed_graph(CallGraph& graph, const FileContext& ctx,
                const std::string& companion_display,
                const std::string& companion_content) {
  graph.add_file(ctx.file, ctx.code, ctx.allowed);
  if (companion_content.empty() || graph.has_file(companion_display)) return;
  std::vector<Finding> scratch;
  FileContext hdr;
  hdr.file = companion_display;
  hdr.findings = &scratch;
  std::vector<Token> code;
  for (Token& t : tokenize(companion_content)) {
    if (t.kind == TokenKind::kComment)
      parse_suppressions(t, hdr);
    else
      code.push_back(std::move(t));
  }
  graph.add_file(companion_display, code, hdr.allowed);
}

// Finds the same-directory companion header of a .cpp, if any.
fs::path companion_path(const fs::path& path) {
  for (const char* ext : {".h", ".hpp"}) {
    fs::path sibling = path;
    sibling.replace_extension(ext);
    if (fs::exists(sibling)) return sibling;
  }
  return {};
}

// Lints one file into `findings` and feeds the shared call graph.
void lint_one(const fs::path& path, std::vector<Finding>& findings,
              CallGraph& graph) {
  std::ifstream probe(path);
  if (!probe) {
    findings.push_back({path.string(), 0, 0, "io-error", "cannot open file"});
    return;
  }
  std::string companion;
  fs::path companion_file;
  if (!header_ext(path)) {
    // A .cpp sees the lock discipline its same-directory header declares.
    companion_file = companion_path(path);
    if (!companion_file.empty()) companion = read_file_or_empty(companion_file);
  }
  FileContext ctx =
      make_context(path.string(), read_file_or_empty(path), companion,
                   findings);
  run_style_rules(ctx);
  run_concurrency_rules(ctx);
  feed_graph(graph, ctx, companion_file.string(), companion);
}

}  // namespace

const std::vector<RuleInfo>& rule_registry() { return kRegistry; }

bool known_rule(const std::string& name) {
  for (const RuleInfo& r : kRegistry)
    if (name == r.name) return true;
  return false;
}

void FileContext::report(std::size_t line, std::size_t col,
                         const std::string& rule, const std::string& message) {
  const auto it = allowed.find(line);
  if (it != allowed.end() && it->second.count(rule)) return;
  findings->push_back({file, line, col, rule, message});
}

std::vector<Finding> lint_source(const std::string& display_path,
                                 const std::string& content,
                                 const std::string& companion_header) {
  std::vector<Finding> findings;
  FileContext ctx =
      make_context(display_path, content, companion_header, findings);
  run_style_rules(ctx);
  run_concurrency_rules(ctx);
  // Single-TU interprocedural pass: the companion header contributes its
  // declarations/annotations to the graph under a synthesized .h path.
  CallGraph graph;
  fs::path companion_display(display_path);
  companion_display.replace_extension(".h");
  feed_graph(graph, ctx, companion_display.string(), companion_header);
  graph.finalize();
  std::vector<Finding> rt = graph.check_realtime();
  findings.insert(findings.end(), std::make_move_iterator(rt.begin()),
                  std::make_move_iterator(rt.end()));
  return findings;
}

std::vector<Finding> lint_file(const fs::path& path) {
  std::vector<Finding> findings;
  CallGraph graph;
  lint_one(path, findings, graph);
  graph.finalize();
  std::vector<Finding> rt = graph.check_realtime();
  findings.insert(findings.end(), std::make_move_iterator(rt.begin()),
                  std::make_move_iterator(rt.end()));
  return findings;
}

std::vector<Finding> run_lint(const std::vector<fs::path>& roots) {
  std::vector<fs::path> files;
  for (const fs::path& r : roots) collect_files(r, files);
  std::vector<Finding> findings;
  // One graph across every TU in the run: a violation in a helper defined
  // in another file is still attributed to the realtime root that reaches
  // it (multi-TU merging happens in CallGraph::add_function by qualified
  // name).
  CallGraph graph;
  for (const fs::path& f : files) lint_one(f, findings, graph);
  graph.finalize();
  std::vector<Finding> rt = graph.check_realtime();
  findings.insert(findings.end(), std::make_move_iterator(rt.begin()),
                  std::make_move_iterator(rt.end()));
  sort_findings(findings);
  return findings;
}

}  // namespace eucon::analysis
