// Output and suppression-file machinery for eucon_lint: text/JSON finding
// rendering, the baseline burn-down file, and compile_commands.json file
// listing.
//
// Baseline format — one entry per line, '#' comments and blanks ignored:
//
//   <filename>:<rule>[:<max-count>]
//
// `filename` is either the file's basename (layout-independent) or — when
// it contains a '/' — a repo-root-relative path such as src/qp/lsqlin.cpp,
// matched against the finding's normalized path so same-named files in
// different directories can be baselined independently. `rule` must exist
// in the registry (a typo is a load error, not a silent no-op), and
// `max-count` caps how many findings the entry may absorb — omitted means
// unlimited. The repo gate ships an EMPTY baseline (tools/lint_baseline.txt);
// the file exists so a future regression can be ratcheted down deliberately
// instead of blocking unrelated work.
#pragma once

#include <filesystem>
#include <string>
#include <vector>

#include "analysis/rules.h"

namespace eucon::analysis {

struct BaselineEntry {
  // Basename, or (when it contains '/') a repo-root-relative path; matched
  // against each finding's file per the header comment.
  std::string filename;
  std::string rule;
  long max_count = -1;  // -1: unlimited
};

struct Baseline {
  std::vector<BaselineEntry> entries;
};

// Parses baseline text. Returns false and sets `error` (with a 1-based line
// number) on a malformed line or an unknown rule name.
bool parse_baseline(const std::string& text, Baseline& out, std::string& error);

// Loads a baseline file from disk; a missing file is an error.
bool load_baseline(const std::filesystem::path& path, Baseline& out,
                   std::string& error);

// Finds the enclosing repository root: the nearest ancestor of `start`
// (made absolute first) that contains a `.git` entry. Empty when none.
std::filesystem::path find_repo_root(const std::filesystem::path& start);

// Rewrites each finding's file to a repo-root-relative generic path ('/'
// separators) so reports and baselines are independent of the invocation
// directory: absolute paths and cwd-relative paths to the same file render
// identically. Each finding's root is discovered from its own location
// (cached per directory); findings outside any repository keep their
// original path, lexically normalized.
void normalize_paths(std::vector<Finding>& findings);

// Canonical finding order: path -> line -> col -> rule -> message. run_lint
// sorts before returning, but path normalization can reorder relative to
// the raw paths the sort saw — callers must re-sort after normalize_paths
// so multi-TU runs (e.g. over compile_commands.json, whose entry order is
// a build-system artifact) emit byte-identical reports.
void sort_findings(std::vector<Finding>& findings);

// Splits findings into kept (returned) and absorbed (counted); entries
// absorb findings in order until their max_count is exhausted. Entries
// containing '/' match the finding's full (normalized) path, other entries
// match its basename.
std::vector<Finding> apply_baseline(const std::vector<Finding>& findings,
                                    Baseline baseline,
                                    std::size_t& suppressed);

// Serializes findings as baseline text (one "<basename>:<rule>:<count>"
// line per file/rule pair, sorted) for --write-baseline.
std::string render_baseline(const std::vector<Finding>& findings);

// One "file:line:col: [rule] message" line per finding.
std::string render_text(const std::vector<Finding>& findings);

// The machine-readable gate format:
//   {"version": 4, "count": N, "baseline_suppressed": M, "findings": [...]}
std::string render_json(const std::vector<Finding>& findings,
                        std::size_t baseline_suppressed);

// Extracts the distinct "file" entries from a compile_commands.json so the
// lint gate can target exactly what the build compiles. Minimal parser:
// handles the format CMake emits. Returns false + error if unreadable.
bool files_from_compile_commands(const std::filesystem::path& path,
                                 std::vector<std::filesystem::path>& out,
                                 std::string& error);

}  // namespace eucon::analysis
