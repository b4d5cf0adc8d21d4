// Output for eucon_lint: repo-relative finding paths, the canonical
// finding order, and the text rendering.
#pragma once

#include <filesystem>
#include <string>
#include <vector>

#include "analysis/rules.h"

namespace eucon::analysis {

// Finds the enclosing repository root: the nearest ancestor of `start`
// (made absolute first) that contains a `.git` entry. Empty when none.
std::filesystem::path find_repo_root(const std::filesystem::path& start);

// Rewrites each finding's file to a repo-root-relative generic path ('/'
// separators) so reports are independent of the invocation directory:
// absolute paths and cwd-relative paths to the same file render
// identically. Each finding's root is discovered from its own location
// (cached per directory); findings outside any repository keep their
// original path, lexically normalized.
void normalize_paths(std::vector<Finding>& findings);

// Canonical finding order: path -> line -> col -> rule -> message. run_lint
// sorts before returning, but path normalization can reorder relative to
// the raw paths the sort saw — callers must re-sort after normalize_paths
// so every spelling of the same roots emits a byte-identical report.
void sort_findings(std::vector<Finding>& findings);

// One "file:line:col: [rule] message" line per finding.
std::string render_text(const std::vector<Finding>& findings);

}  // namespace eucon::analysis
