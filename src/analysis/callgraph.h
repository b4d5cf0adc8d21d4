// Token-level call-graph extraction for eucon_lint's interprocedural rules.
//
// CallGraph consumes the token streams the lexer already produces (one
// add_file per translation unit or header; duplicate paths are ignored, so
// a header seen both standalone and as a .cpp companion is parsed once),
// extracts function definitions and annotated declarations with
// scope-qualified names, records their call sites and direct real-time
// violations, and, after finalize(), resolves call edges so
// check_realtime() can walk transitively from every EUCON_REALTIME root.
//
// This is a lexer, not a compiler, so resolution is deliberately
// conservative and over-approximate:
//  - overloads share one node: a call to an overloaded name reaches every
//    overload;
//  - a member call through an object (`obj.f(...)`) first tries the
//    receiver's declared type: class-scope fields and function parameters
//    (`T x_;`, `T* x_;`, `unique_ptr<T> x_;`, `const T& x`) record
//    name -> type leaves, and a receiver whose last component matches one
//    resolves to `f` on exactly the recorded classes (union over every
//    same-named declaration repo-wide). When no recorded class declares
//    `f` — or the receiver is not a recorded name — the call falls back
//    to every method named `f`;
//  - calls through function pointers, macros (EUCON_REQUIRE, OBS_TIMED),
//    and names with no definition in the linted set stay unresolved — the
//    graph never invents an edge it cannot attribute;
//  - anonymous namespaces are transparent (their functions take the
//    enclosing scope's qualified name), which merges identically-named
//    file-local helpers across TUs — an over-approximation, never a miss.
//
// The real-time contract itself (EUCON_REALTIME and the EUCON_*_OK escape
// hatches) lives in common/annotations.h; the three rules and the
// propagation policy are implemented in realtime_rules.cpp.
#pragma once

#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "analysis/lexer.h"
#include "analysis/rules.h"

namespace eucon::analysis {

// The three real-time violation categories, in registry order.
enum class RtCategory { kAlloc = 0, kBlock = 1, kNondet = 2 };
inline constexpr int kRtCategoryCount = 3;

// Registry rule name for a category ("allocation-in-realtime", ...).
const char* rt_rule_name(RtCategory c);

// One direct (intra-function) violation, found while scanning a body.
struct CgViolation {
  RtCategory category = RtCategory::kAlloc;
  std::string what;    // offending token, e.g. "push_back", "throw"
  std::string detail;  // verb phrase for the diagnostic, e.g. "allocates"
  std::string file;
  std::size_t line = 0;
  std::size_t col = 0;
};

// One call site inside a function body, before resolution.
struct CgCall {
  std::string name;     // possibly qualified: "f", "linalg::multiply_into"
  bool member = false;  // obj.f(...) / obj->f(...) form
  // Member calls: the receiver chain as spelled ("shard.local", "solver_");
  // empty when the receiver isn't a plain name chain. Drives the
  // typed-field narrowing in finalize().
  std::string receiver;
  std::size_t line = 0;
  std::size_t col = 0;
};

// One function node. Declarations and definitions with the same qualified
// name merge (annotations union; the definition supplies body facts), as do
// all overloads of one name — see the header comment.
struct CgFunction {
  std::string qname;  // scope-qualified: "eucon::control::MpcController::update"
  std::string file;   // definition site when one exists, else declaration
  std::size_t line = 0;
  bool defined = false;    // a body was seen in some added file
  bool is_method = false;  // defined in class scope or via Class::name
  bool realtime = false;   // EUCON_REALTIME root
  bool ok[kRtCategoryCount] = {false, false, false};  // EUCON_*_OK hatches
  std::vector<CgCall> calls;            // raw call sites (body order)
  std::vector<CgViolation> violations;  // direct violations (body order)
  std::vector<std::size_t> callees;     // resolved edges, indices into
                                        // functions(); filled by finalize()
  std::vector<std::string> unresolved;  // distinct call names with no target
};

class CallGraph {
 public:
  // Parses one file's comment-stripped token stream into the graph.
  // `allowed` is the file's line -> suppressed-rules map (mined from the
  // usual eucon-lint suppression comments); it participates in
  // check_realtime() so line suppressions work for interprocedural
  // findings too. A display_path already added is ignored.
  void add_file(const std::string& display_path,
                const std::vector<Token>& code,
                const std::map<std::size_t, std::set<std::string>>& allowed);

  bool has_file(const std::string& display_path) const;

  // Resolves call edges. Call after the last add_file; add_file after
  // finalize() is an error (asserted in debug builds, ignored otherwise).
  void finalize();

  const std::vector<CgFunction>& functions() const { return functions_; }

  // Node lookup by exact qualified name (nullptr when absent).
  const CgFunction* find(const std::string& qname) const;

  // Runs the three realtime rules: walks from every EUCON_REALTIME root,
  // per category, stopping at EUCON_*_OK hatches, and returns one finding
  // per offending site with the full call chain in the message. Requires
  // finalize(). Implemented in realtime_rules.cpp.
  std::vector<Finding> check_realtime() const;

  // Class-scope field and function-parameter declarations seen so far:
  // name -> declared class-type leaves (the pointee for smart-pointer
  // declarations). Unioned repo-wide; drives the typed member-call
  // narrowing.
  const std::map<std::string, std::set<std::string>>& field_types() const {
    return field_types_;
  }

 private:
  friend class CallGraphExtractor;

  // Appends or merges one extracted function; returns its index.
  std::size_t add_function(CgFunction fn);

  std::vector<CgFunction> functions_;
  std::map<std::string, std::size_t> by_qname_;
  std::set<std::string> files_;
  std::map<std::string, std::set<std::string>> field_types_;
  // file -> line -> rules allowed on that line.
  std::map<std::string, std::map<std::size_t, std::set<std::string>>> allowed_;
  bool finalized_ = false;
};

}  // namespace eucon::analysis
