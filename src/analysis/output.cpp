#include "analysis/output.h"

#include <algorithm>
#include <map>
#include <sstream>

namespace fs = std::filesystem;

namespace eucon::analysis {

fs::path find_repo_root(const fs::path& start) {
  std::error_code ec;
  fs::path dir = fs::absolute(start, ec);
  if (ec) return {};
  dir = dir.lexically_normal();
  if (!fs::is_directory(dir, ec)) dir = dir.parent_path();
  for (; !dir.empty(); dir = dir.parent_path()) {
    if (fs::exists(dir / ".git", ec)) return dir;
    if (dir == dir.root_path()) break;
  }
  return {};
}

void normalize_paths(std::vector<Finding>& findings) {
  // Root discovery walks the filesystem once per distinct parent directory.
  std::map<std::string, fs::path> root_cache;
  for (Finding& f : findings) {
    std::error_code ec;
    fs::path abs = fs::absolute(fs::path(f.file), ec);
    if (ec) continue;
    abs = abs.lexically_normal();
    const std::string parent = abs.parent_path().string();
    auto it = root_cache.find(parent);
    if (it == root_cache.end())
      it = root_cache.emplace(parent, find_repo_root(abs.parent_path())).first;
    const fs::path& root = it->second;
    if (!root.empty()) {
      f.file = abs.lexically_relative(root).generic_string();
    } else {
      f.file = fs::path(f.file).lexically_normal().generic_string();
    }
  }
}

void sort_findings(std::vector<Finding>& findings) {
  std::stable_sort(findings.begin(), findings.end(),
                   [](const Finding& a, const Finding& b) {
                     if (a.file != b.file) return a.file < b.file;
                     if (a.line != b.line) return a.line < b.line;
                     if (a.col != b.col) return a.col < b.col;
                     if (a.rule != b.rule) return a.rule < b.rule;
                     return a.message < b.message;
                   });
}

std::string render_text(const std::vector<Finding>& findings) {
  std::ostringstream out;
  for (const Finding& f : findings)
    out << f.file << ":" << f.line << ":" << f.col << ": [" << f.rule << "] "
        << f.message << "\n";
  return out.str();
}

}  // namespace eucon::analysis
