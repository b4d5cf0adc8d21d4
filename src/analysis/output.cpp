#include "analysis/output.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <set>
#include <sstream>

namespace fs = std::filesystem;

namespace eucon::analysis {

namespace {

std::string trim(const std::string& s) {
  const std::size_t a = s.find_first_not_of(" \t\r");
  if (a == std::string::npos) return "";
  const std::size_t b = s.find_last_not_of(" \t\r");
  return s.substr(a, b - a + 1);
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char ch : s) {
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", ch);
          out += buf;
        } else {
          out += ch;
        }
    }
  }
  return out;
}

}  // namespace

bool parse_baseline(const std::string& text, Baseline& out,
                    std::string& error) {
  std::istringstream in(text);
  std::string raw;
  std::size_t lineno = 0;
  while (std::getline(in, raw)) {
    ++lineno;
    const std::string line = trim(raw);
    if (line.empty() || line[0] == '#') continue;
    // <filename>:<rule>[:<max-count>] — filename may not contain ':'.
    const std::size_t first = line.find(':');
    if (first == std::string::npos || first == 0) {
      error = "baseline line " + std::to_string(lineno) +
              ": expected <filename>:<rule>[:<max-count>]";
      return false;
    }
    BaselineEntry entry;
    entry.filename = trim(line.substr(0, first));
    std::string rest = line.substr(first + 1);
    const std::size_t second = rest.find(':');
    if (second != std::string::npos) {
      const std::string count = trim(rest.substr(second + 1));
      rest = rest.substr(0, second);
      char* end = nullptr;
      entry.max_count = std::strtol(count.c_str(), &end, 10);
      if (count.empty() || end == nullptr || *end != '\0' ||
          entry.max_count < 0) {
        error = "baseline line " + std::to_string(lineno) +
                ": bad max-count '" + count + "'";
        return false;
      }
    }
    entry.rule = trim(rest);
    if (!known_rule(entry.rule)) {
      error = "baseline line " + std::to_string(lineno) + ": unknown rule '" +
              entry.rule + "'";
      return false;
    }
    out.entries.push_back(std::move(entry));
  }
  return true;
}

bool load_baseline(const fs::path& path, Baseline& out, std::string& error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    error = "cannot open baseline file '" + path.string() + "'";
    return false;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return parse_baseline(buf.str(), out, error);
}

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

std::vector<Finding> apply_baseline(const std::vector<Finding>& findings,
                                    Baseline baseline,
                                    std::size_t& suppressed) {
  suppressed = 0;
  std::vector<Finding> kept;
  kept.reserve(findings.size());
  for (const Finding& f : findings) {
    const std::string base = fs::path(f.file).filename().string();
    const std::string full = fs::path(f.file).generic_string();
    bool absorbed = false;
    for (BaselineEntry& e : baseline.entries) {
      const bool by_path = e.filename.find('/') != std::string::npos;
      if ((by_path ? e.filename != full : e.filename != base) ||
          e.rule != f.rule)
        continue;
      if (e.max_count == 0) continue;  // exhausted
      if (e.max_count > 0) --e.max_count;
      absorbed = true;
      break;
    }
    if (absorbed) {
      ++suppressed;
    } else {
      kept.push_back(f);
    }
  }
  return kept;
}

std::string render_baseline(const std::vector<Finding>& findings) {
  std::map<std::pair<std::string, std::string>, long> counts;
  for (const Finding& f : findings)
    ++counts[{fs::path(f.file).filename().string(), f.rule}];
  std::ostringstream out;
  out << "# eucon_lint baseline: <filename>:<rule>:<max-count>\n"
      << "# Burn entries down to zero, then delete them.\n";
  for (const auto& [key, count] : counts)
    out << key.first << ":" << key.second << ":" << count << "\n";
  return out.str();
}

std::string render_text(const std::vector<Finding>& findings) {
  std::ostringstream out;
  for (const Finding& f : findings)
    out << f.file << ":" << f.line << ":" << f.col << ": [" << f.rule << "] "
        << f.message << "\n";
  return out.str();
}

std::string render_json(const std::vector<Finding>& findings,
                        std::size_t baseline_suppressed) {
  std::ostringstream out;
  out << "{\n"
      << "  \"version\": 4,\n"
      << "  \"count\": " << findings.size() << ",\n"
      << "  \"baseline_suppressed\": " << baseline_suppressed << ",\n"
      << "  \"findings\": [";
  for (std::size_t i = 0; i < findings.size(); ++i) {
    const Finding& f = findings[i];
    out << (i == 0 ? "" : ",") << "\n    {\"file\": \"" << json_escape(f.file)
        << "\", \"line\": " << f.line << ", \"col\": " << f.col
        << ", \"rule\": \"" << json_escape(f.rule) << "\", \"message\": \""
        << json_escape(f.message) << "\"}";
  }
  out << (findings.empty() ? "" : "\n  ") << "]\n}\n";
  return out.str();
}

bool files_from_compile_commands(const fs::path& path,
                                 std::vector<fs::path>& out,
                                 std::string& error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    error = "cannot open '" + path.string() + "'";
    return false;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();
  std::set<std::string> seen;
  const std::string key = "\"file\"";
  std::size_t pos = text.find(key);
  while (pos != std::string::npos) {
    // The opening quote of the value, past the ':' separator.
    const std::size_t q = text.find('"', pos + key.size());
    if (q == std::string::npos) break;
    const std::size_t end = text.find('"', q + 1);
    if (end == std::string::npos) break;
    const std::string file = text.substr(q + 1, end - q - 1);
    if (seen.insert(file).second) out.emplace_back(file);
    pos = text.find(key, end + 1);
  }
  return true;
}

}  // namespace eucon::analysis
