// Call-graph extraction: function discovery, body scanning (call sites +
// direct real-time violations), and conservative name resolution. See
// callgraph.h for the model and realtime_rules.cpp for the propagation.
#include "analysis/callgraph.h"

#include <algorithm>

namespace eucon::analysis {

namespace {

bool punct_is(const Token& t, const char* text) {
  return t.kind == TokenKind::kPunct && t.text == text;
}

const std::set<std::string>& control_keywords() {
  static const std::set<std::string> kSet = {
      "if",          "for",         "while",       "switch",
      "return",      "sizeof",      "catch",       "alignof",
      "alignas",     "decltype",    "noexcept",    "static_assert",
      "static_cast", "dynamic_cast", "reinterpret_cast", "const_cast",
      "typeid",      "co_await",    "co_return",   "co_yield",
      "and",         "or",          "not",         "assert",
      "defined",     "__attribute__"};
  return kSet;
}

// Trailer specifiers between ')' and the body/';' that carry no structure.
const std::set<std::string>& plain_specifiers() {
  static const std::set<std::string> kSet = {"const",    "override", "final",
                                             "mutable",  "volatile", "noexcept",
                                             "constexpr", "try"};
  return kSet;
}

struct Annotations {
  bool realtime = false;
  bool ok[kRtCategoryCount] = {false, false, false};
};

bool annotation_name(const std::string& text, Annotations& out) {
  if (text == "EUCON_REALTIME") {
    out.realtime = true;
  } else if (text == "EUCON_ALLOC_OK") {
    out.ok[static_cast<int>(RtCategory::kAlloc)] = true;
  } else if (text == "EUCON_BLOCK_OK") {
    out.ok[static_cast<int>(RtCategory::kBlock)] = true;
  } else if (text == "EUCON_NONDET_OK") {
    out.ok[static_cast<int>(RtCategory::kNondet)] = true;
  } else {
    return false;
  }
  return true;
}

// Other trailing macros whose (optional) parenthesized arguments must be
// skipped without ending head parsing (the thread-safety annotation set).
bool skippable_annotation(const std::string& text) {
  return text.rfind("EUCON_", 0) == 0;
}

// --- violation tables ------------------------------------------------------

// Free/namespace-qualified calls that allocate or free heap memory.
const std::set<std::string>& alloc_calls() {
  static const std::set<std::string> kSet = {
      "malloc", "calloc", "realloc", "aligned_alloc",
      "posix_memalign", "strdup", "free"};
  return kSet;
}

// Member calls that may (re)allocate the container's storage.
const std::set<std::string>& growth_members() {
  static const std::set<std::string> kSet = {
      "push_back", "emplace_back", "push_front", "emplace_front",
      "insert",    "emplace",      "resize",     "reserve",
      "append",    "shrink_to_fit"};
  return kSet;
}

// Types whose by-value construction owns heap storage. Flagged on
// declarations and temporaries; `Type&` / `Type*` uses are exempt.
const std::set<std::string>& alloc_types() {
  static const std::set<std::string> kSet = {
      "vector",        "string",        "deque",         "map",
      "set",           "multimap",      "multiset",      "unordered_map",
      "unordered_set", "ostringstream", "istringstream", "stringstream",
      "Vector",        "Matrix"};
  return kSet;
}

// Member calls that block the calling thread.
const std::set<std::string>& block_members() {
  static const std::set<std::string> kSet = {"lock",      "wait", "wait_for",
                                             "wait_until", "join", "flush"};
  return kSet;
}

// RAII lock types: construction acquires (and may contend on) a mutex.
const std::set<std::string>& lock_types() {
  static const std::set<std::string> kSet = {
      "lock_guard", "unique_lock", "scoped_lock", "shared_lock", "MutexLock"};
  return kSet;
}

// Blocking calls by name (sleeps, file/socket I/O).
const std::set<std::string>& block_calls() {
  static const std::set<std::string> kSet = {
      "sleep",   "usleep", "nanosleep", "sleep_for", "sleep_until",
      "fopen",   "fclose", "fread",     "fwrite",    "fprintf",
      "printf",  "fputs",  "puts",      "fflush",    "fscanf",
      "scanf",   "getline", "fsync",    "send",      "recv",
      "connect", "accept", "bind",      "listen",    "select",
      "poll",    "epoll_wait", "system", "popen"};
  return kSet;
}

// Identifiers whose mere presence means stream/file I/O.
const std::set<std::string>& block_idents() {
  static const std::set<std::string> kSet = {"cout", "cerr", "clog",
                                             "ifstream", "ofstream", "fstream"};
  return kSet;
}

// Nondeterminism sources, call form.
const std::set<std::string>& nondet_calls() {
  static const std::set<std::string> kSet = {
      "rand",      "srand",        "random",       "drand48",
      "lrand48",   "mrand48",      "rand_r",       "time",
      "clock",     "gettimeofday", "clock_gettime", "localtime",
      "gmtime",    "getenv",       "getpid"};
  return kSet;
}

// Nondeterminism sources, identifier form (clock/type mentions).
const std::set<std::string>& nondet_idents() {
  static const std::set<std::string> kSet = {
      "random_device", "steady_clock", "system_clock", "high_resolution_clock"};
  return kSet;
}

}  // namespace

const char* rt_rule_name(RtCategory c) {
  switch (c) {
    case RtCategory::kAlloc: return "allocation-in-realtime";
    case RtCategory::kBlock: return "blocking-in-realtime";
    case RtCategory::kNondet: return "nondeterminism-in-realtime";
  }
  return "allocation-in-realtime";
}

// ---------------------------------------------------------------------------
// Extraction: one forward pass with an explicit scope stack. Function
// bodies are scanned flat (lambdas and local classes attribute to the
// enclosing function) and then skipped, so definitions are only ever
// recognized at namespace/class scope.
class CallGraphExtractor {
 public:
  CallGraphExtractor(CallGraph& graph, const std::string& file,
                     const std::vector<Token>& code)
      : graph_(graph), file_(file), c_(code) {}

  void run() {
    std::size_t i = 0;
    while (i < c_.size()) i = step(i);
  }

 private:
  struct Scope {
    std::string name;  // "" for anonymous namespace / extern "C" blocks
    bool is_class = false;
  };

  const Token& tok(std::size_t i) const { return c_[i]; }
  bool in_range(std::size_t i) const { return i < c_.size(); }

  // Index just past the group opened at `i` ('(', '{' or '<'); tolerant of
  // truncation. For '<' gives up (returns open+1) on tokens that cannot be
  // part of a template argument list, so comparison operators don't eat
  // the rest of the file.
  std::size_t skip_balanced(std::size_t i, const char* open,
                            const char* close) const {
    int depth = 0;
    std::size_t j = i;
    while (in_range(j)) {
      if (punct_is(c_[j], open)) {
        ++depth;
      } else if (punct_is(c_[j], close)) {
        if (--depth == 0) return j + 1;
      }
      ++j;
    }
    return j;
  }

  // If c_[i] is '<', returns the index past a plausible matching '>';
  // otherwise returns i. Bails out (returns i) on ';' '{' '}' — a '<' that
  // runs into those was a comparison, not a template argument list.
  std::size_t skip_angles(std::size_t i) const {
    if (!in_range(i) || !punct_is(c_[i], "<")) return i;
    int depth = 0;
    std::size_t j = i;
    while (in_range(j)) {
      const Token& t = c_[j];
      if (punct_is(t, "<")) {
        ++depth;
      } else if (punct_is(t, ">") || punct_is(t, ">>")) {
        depth -= (t.text == ">>") ? 2 : 1;
        if (depth <= 0) return j + 1;
      } else if (punct_is(t, ";") || punct_is(t, "{") || punct_is(t, "}")) {
        return i;  // was a comparison
      }
      ++j;
    }
    return i;
  }

  std::string qualify(const std::string& name) const {
    std::string q;
    for (const Scope& s : scopes_) {
      if (s.name.empty()) continue;  // anonymous namespaces are transparent
      q += s.name;
      q += "::";
    }
    return q + name;
  }

  bool innermost_is_class() const {
    return !scopes_.empty() && scopes_.back().is_class;
  }

  // One step of the scope-level scan; returns the next index.
  std::size_t step(std::size_t i) {
    const Token& t = c_[i];
    if (t.kind == TokenKind::kDirective) return i + 1;
    if (t.kind == TokenKind::kIdentifier) {
      if (t.text == "namespace") return handle_namespace(i);
      if (t.text == "enum") return skip_enum(i);
      if ((t.text == "class" || t.text == "struct" || t.text == "union") &&
          !(i > 0 && (punct_is(c_[i - 1], "<") || punct_is(c_[i - 1], ","))))
        return handle_class(i);
      if (t.text == "using" || t.text == "typedef") return skip_to_semi(i);
      if (t.text == "extern" && in_range(i + 1) &&
          c_[i + 1].kind == TokenKind::kString && in_range(i + 2) &&
          punct_is(c_[i + 2], "{")) {
        scopes_.push_back({"", false});  // extern "C" { — transparent
        return i + 3;
      }
      if (in_range(i + 1) && punct_is(c_[i + 1], "(")) {
        const std::size_t next = try_function(i);
        if (next != i) return next;
      }
      if (t.text == "operator") {
        const std::size_t next = try_operator(i);
        if (next != i) return next;
      }
      if (innermost_is_class()) {
        const std::size_t next = try_member_field(i);
        if (next != i) return next;
      }
      return i + 1;
    }
    if (punct_is(t, "{")) return skip_balanced(i, "{", "}");  // initializer
    if (punct_is(t, "}")) {
      if (!scopes_.empty()) scopes_.pop_back();
      return i + 1;
    }
    return i + 1;
  }

  std::size_t handle_namespace(std::size_t i) {
    std::size_t j = i + 1;
    std::string name;
    while (in_range(j)) {
      if (c_[j].kind == TokenKind::kIdentifier) {
        if (!name.empty()) name += "::";
        name += c_[j].text;
        ++j;
      } else if (punct_is(c_[j], "::")) {
        ++j;
      } else {
        break;
      }
    }
    if (in_range(j) && punct_is(c_[j], "{")) {
      scopes_.push_back({name, false});
      return j + 1;
    }
    return skip_to_semi(i);  // namespace alias / using namespace
  }

  // class/struct/union: find the name (last identifier before ':' / '{',
  // ignoring attribute-macro argument lists and a trailing `final`), then
  // either push a class scope or skip a forward declaration.
  std::size_t handle_class(std::size_t i) {
    std::size_t j = i + 1;
    std::string name;
    bool saw_colon = false;
    while (in_range(j)) {
      const Token& t = c_[j];
      if (punct_is(t, ";")) return j + 1;  // forward declaration
      if (punct_is(t, "{")) break;
      if (punct_is(t, "(")) {
        j = skip_balanced(j, "(", ")");  // EUCON_CAPABILITY("...") etc.
        continue;
      }
      if (punct_is(t, "<")) {
        j = skip_angles(j);
        if (punct_is(c_[j], "<")) ++j;  // bail-out safety
        continue;
      }
      if (punct_is(t, ":")) saw_colon = true;
      if (t.kind == TokenKind::kIdentifier && !saw_colon &&
          t.text != "final" && t.text != "alignas")
        name = t.text;
      ++j;
    }
    if (!in_range(j)) return j;
    scopes_.push_back({name, true});
    return j + 1;
  }

  std::size_t skip_enum(std::size_t i) {
    std::size_t j = i + 1;
    while (in_range(j)) {
      if (punct_is(c_[j], ";")) return j + 1;
      if (punct_is(c_[j], "{")) {
        j = skip_balanced(j, "{", "}");
        if (in_range(j) && punct_is(c_[j], ";")) ++j;
        return j;
      }
      ++j;
    }
    return j;
  }

  std::size_t skip_to_semi(std::size_t i) {
    std::size_t j = i;
    while (in_range(j) && !punct_is(c_[j], ";")) {
      if (punct_is(c_[j], "{")) {
        j = skip_balanced(j, "{", "}");
        continue;
      }
      ++j;
    }
    return in_range(j) ? j + 1 : j;
  }

  // Can `i` start a declarator name chain, judged by what precedes it? An
  // expression context (`= f(...)`, `foo + bar(...)`) must not register a
  // function.
  bool valid_head_predecessor(std::size_t chain_start) const {
    if (chain_start == 0) return true;
    const Token& p = c_[chain_start - 1];
    if (p.kind == TokenKind::kIdentifier)
      return !control_keywords().count(p.text);
    if (p.kind == TokenKind::kPunct)
      return p.text == "*" || p.text == "&" || p.text == "&&" ||
             p.text == ">" || p.text == ";" || p.text == "{" ||
             p.text == "}" || p.text == ":" || p.text == ")";
    return p.kind == TokenKind::kDirective;
  }

  // `Type name ;|=|{...}|EUCON_*` at class scope: a data-member
  // declaration. Records name -> type leaf for the typed member-call
  // narrowing in finalize(): `qp::QpWorkspace* ws_` records ws_ ->
  // QpWorkspace, `std::unique_ptr<MpcController> local` records the
  // pointee. Returns i when the shape doesn't match.
  std::size_t try_member_field(std::size_t i) {
    std::size_t j = i;
    while (in_range(j) && c_[j].kind == TokenKind::kIdentifier &&
           (c_[j].text == "const" || c_[j].text == "static" ||
            c_[j].text == "mutable" || c_[j].text == "constexpr" ||
            c_[j].text == "inline"))
      ++j;
    if (!in_range(j) || c_[j].kind != TokenKind::kIdentifier ||
        control_keywords().count(c_[j].text))
      return i;
    std::string leaf = c_[j].text;
    ++j;
    while (in_range(j + 1) && punct_is(c_[j], "::") &&
           c_[j + 1].kind == TokenKind::kIdentifier) {
      leaf = c_[j + 1].text;
      j += 2;
    }
    if (in_range(j) && punct_is(c_[j], "<")) {
      const std::size_t a = skip_angles(j);
      if (a == j) return i;
      if (leaf == "unique_ptr" || leaf == "shared_ptr") {
        // The pointee is what member calls dispatch on; take the last
        // identifier of its (possibly qualified) name.
        std::string inner;
        for (std::size_t x = j + 1; x + 1 < a; ++x)
          if (c_[x].kind == TokenKind::kIdentifier && c_[x].text != "const")
            inner = c_[x].text;
        if (inner.empty()) return i;
        leaf = inner;
      }
      j = a;
    }
    while (in_range(j) && (punct_is(c_[j], "*") || punct_is(c_[j], "&")))
      ++j;
    if (!in_range(j + 1) || c_[j].kind != TokenKind::kIdentifier ||
        control_keywords().count(c_[j].text))
      return i;
    const std::string fname = c_[j].text;
    const Token& after = c_[j + 1];
    const bool field_shape =
        punct_is(after, ";") || punct_is(after, "=") ||
        punct_is(after, "{") ||
        (after.kind == TokenKind::kIdentifier &&
         after.text.rfind("EUCON_", 0) == 0);
    if (!field_shape) return i;
    graph_.field_types_[fname].insert(leaf);
    return j + 1;
  }

  // c_[i] is an identifier directly followed by '('. Try to parse a
  // function declaration/definition whose name chain ends at i; returns i
  // unchanged when this isn't one.
  std::size_t try_function(std::size_t i) {
    if (control_keywords().count(c_[i].text)) return i;
    // Walk left over `ident ::` pairs (and a destructor '~').
    std::size_t chain_start = i;
    std::string name = c_[i].text;
    while (chain_start >= 2 && punct_is(c_[chain_start - 1], "::") &&
           c_[chain_start - 2].kind == TokenKind::kIdentifier) {
      name = c_[chain_start - 2].text + "::" + name;
      chain_start -= 2;
    }
    if (chain_start >= 1 && punct_is(c_[chain_start - 1], "~")) {
      name = "~" + name;
      --chain_start;
    }
    if (!valid_head_predecessor(chain_start)) return i;
    return parse_head(i, i + 1, name);
  }

  // `operator` at scope level: `operator+(...)`, `operator()(...)`.
  std::size_t try_operator(std::size_t i) {
    std::size_t j = i + 1;
    std::string name = "operator";
    if (in_range(j + 1) && punct_is(c_[j], "(") && punct_is(c_[j + 1], ")")) {
      name += "()";
      j += 2;
    } else {
      while (in_range(j) && c_[j].kind == TokenKind::kPunct &&
             !punct_is(c_[j], "(")) {
        name += c_[j].text;
        ++j;
      }
    }
    if (!in_range(j) || !punct_is(c_[j], "(")) return i;
    if (!valid_head_predecessor(i)) return i;
    return parse_head(i, j, name);
  }

  // Records `Type [*&]* name` pairs from the parameter list opened at
  // `lparen` into the typed-receiver map, the same way class fields are
  // recorded: `const SparseMatrix& a` lets `a.value(k)` dispatch on
  // SparseMatrix instead of every class with a value() method. Called only
  // once the head is known to register as a function, so expression
  // parentheses never pollute the map.
  void record_param_types(std::size_t lparen) {
    std::size_t j = lparen + 1;
    const std::size_t close = skip_balanced(lparen, "(", ")");
    while (j + 1 < close) {
      while (j < close && c_[j].kind == TokenKind::kIdentifier &&
             (c_[j].text == "const" || c_[j].text == "volatile"))
        ++j;
      if (j >= close || c_[j].kind != TokenKind::kIdentifier ||
          control_keywords().count(c_[j].text))
        break;
      std::string leaf = c_[j].text;
      ++j;
      while (j + 1 < close && punct_is(c_[j], "::") &&
             c_[j + 1].kind == TokenKind::kIdentifier) {
        leaf = c_[j + 1].text;
        j += 2;
      }
      if (j < close && punct_is(c_[j], "<")) {
        const std::size_t a = skip_angles(j);
        if (a == j) break;
        if (leaf == "unique_ptr" || leaf == "shared_ptr") {
          std::string inner;
          for (std::size_t x = j + 1; x + 1 < a; ++x)
            if (c_[x].kind == TokenKind::kIdentifier &&
                c_[x].text != "const")
              inner = c_[x].text;
          if (inner.empty()) break;
          leaf = inner;
        }
        j = a;
      }
      while (j < close && (punct_is(c_[j], "*") || punct_is(c_[j], "&") ||
                           punct_is(c_[j], "&&")))
        ++j;
      if (j >= close || c_[j].kind != TokenKind::kIdentifier) {
        // Unnamed parameter (or a shape this lexer doesn't model): skip to
        // the next top-level comma.
      } else {
        graph_.field_types_[c_[j].text].insert(leaf);
        ++j;
      }
      int depth = 0;
      while (j < close) {
        if (punct_is(c_[j], "(") || punct_is(c_[j], "{")) ++depth;
        if (punct_is(c_[j], ")") || punct_is(c_[j], "}")) --depth;
        if (depth == 0 && punct_is(c_[j], ",")) {
          ++j;
          break;
        }
        ++j;
      }
    }
  }

  // Parses from the parameter list's '(' (at `lparen`) through the trailer
  // to a body or ';'. Registers the function and returns the index past it;
  // returns `name_idx` when the shape turns out not to be a function.
  std::size_t parse_head(std::size_t name_idx, std::size_t lparen,
                         const std::string& name) {
    std::size_t j = skip_balanced(lparen, "(", ")");
    Annotations ann;
    bool is_decl = false;
    while (in_range(j)) {
      const Token& t = c_[j];
      if (t.kind == TokenKind::kIdentifier) {
        if (plain_specifiers().count(t.text)) {
          ++j;
          if (t.text == "noexcept" && in_range(j) && punct_is(c_[j], "("))
            j = skip_balanced(j, "(", ")");
          continue;
        }
        if (annotation_name(t.text, ann) || skippable_annotation(t.text)) {
          ++j;
          if (in_range(j) && punct_is(c_[j], "("))
            j = skip_balanced(j, "(", ")");
          continue;
        }
        return name_idx;  // stray identifier: not a function head
      }
      if (punct_is(t, "&") || punct_is(t, "&&")) {  // ref-qualifier
        ++j;
        continue;
      }
      if (punct_is(t, "->")) {  // trailing return type
        ++j;
        while (in_range(j) && !punct_is(c_[j], "{") && !punct_is(c_[j], ";") &&
               !punct_is(c_[j], "=")) {
          if (punct_is(c_[j], "<")) {
            const std::size_t a = skip_angles(j);
            j = (a == j) ? j + 1 : a;
            continue;
          }
          if (punct_is(c_[j], "(")) {
            j = skip_balanced(j, "(", ")");
            continue;
          }
          ++j;
        }
        continue;
      }
      if (punct_is(t, "=")) {
        // = default / = delete / = 0 — a declaration either way.
        is_decl = true;
        j = skip_to_semi(j);
        break;
      }
      if (punct_is(t, ":")) {  // constructor member-init list
        j = skip_ctor_inits(j + 1);
        continue;
      }
      if (punct_is(t, "{")) {
        const std::size_t body_open = j;
        const std::size_t body_end = skip_balanced(j, "{", "}");
        record_param_types(lparen);
        register_function(name, name_idx, /*defined=*/true, ann, body_open + 1,
                          body_end > 0 ? body_end - 1 : body_open);
        return body_end;
      }
      if (punct_is(t, ";")) {
        is_decl = true;
        ++j;
        break;
      }
      return name_idx;  // unexpected shape: an expression, not a head
    }
    if (is_decl) {
      record_param_types(lparen);
      register_function(name, name_idx, /*defined=*/false, ann, 0, 0);
      return j;
    }
    return name_idx;
  }

  // After a ctor's ':' — groups of `qualified-name ( ... )` or
  // `qualified-name { ... }` separated by ','; the body '{' follows the
  // last group.
  std::size_t skip_ctor_inits(std::size_t j) {
    while (in_range(j)) {
      while (in_range(j) &&
             (c_[j].kind == TokenKind::kIdentifier || punct_is(c_[j], "::")))
        ++j;
      j = skip_angles(j);
      if (!in_range(j)) return j;
      if (punct_is(c_[j], "("))
        j = skip_balanced(j, "(", ")");
      else if (punct_is(c_[j], "{"))
        j = skip_balanced(j, "{", "}");
      else
        return j;
      if (in_range(j) && punct_is(c_[j], ",")) {
        ++j;
        continue;
      }
      return j;  // next token should be the body '{'
    }
    return j;
  }

  void register_function(const std::string& name, std::size_t name_idx,
                         bool defined, const Annotations& ann,
                         std::size_t body_begin, std::size_t body_end) {
    CgFunction fn;
    fn.qname = qualify(name);
    fn.file = file_;
    fn.line = c_[name_idx].line;
    fn.defined = defined;
    fn.is_method =
        innermost_is_class() || name.find("::") != std::string::npos;
    fn.realtime = ann.realtime;
    for (int k = 0; k < kRtCategoryCount; ++k) fn.ok[k] = ann.ok[k];
    if (defined) scan_body(fn, body_begin, body_end);
    graph_.add_function(std::move(fn));
  }

  void add_violation(CgFunction& fn, RtCategory cat, const Token& at,
                     const std::string& what, const char* detail) {
    fn.violations.push_back({cat, what, detail, file_, at.line, at.col});
  }

  // Receiver expression of the member call whose name is at `k` (c_[k-1]
  // is '.' or '->'): the `ident (. | -> | ::) ...` chain to its left,
  // rendered as spelled ("shard.local", "solver_"). Empty when there is no
  // plain name chain (e.g. a call or index expression as receiver).
  std::string receiver_expr(std::size_t k, std::size_t begin) const {
    std::size_t s = k;
    while (s >= begin + 2 &&
           (punct_is(c_[s - 1], ".") || punct_is(c_[s - 1], "->") ||
            punct_is(c_[s - 1], "::")) &&
           c_[s - 2].kind == TokenKind::kIdentifier)
      s -= 2;
    std::string r;
    for (std::size_t j = s; j + 2 <= k; ++j) r += c_[j].text;
    return r;
  }

  // Flat scan of a body range for call sites and direct violations.
  void scan_body(CgFunction& fn, std::size_t begin, std::size_t end) {
    for (std::size_t k = begin; k < end && k < c_.size(); ++k) {
      const Token& t = c_[k];
      if (t.kind != TokenKind::kIdentifier) continue;
      const bool has_next = k + 1 < end;
      const bool next_is_call = has_next && punct_is(c_[k + 1], "(");
      const Token* prev = k > 0 ? &c_[k - 1] : nullptr;
      const bool after_member_op =
          prev != nullptr && (punct_is(*prev, ".") || punct_is(*prev, "->"));

      // --- direct violations -------------------------------------------
      if (t.text == "new") {
        add_violation(fn, RtCategory::kAlloc, t, "new", "allocates");
        continue;
      }
      if (t.text == "delete") {
        if (prev == nullptr || !punct_is(*prev, "="))
          add_violation(fn, RtCategory::kAlloc, t, "delete",
                        "frees heap memory");
        continue;
      }
      if (t.text == "throw") {
        add_violation(fn, RtCategory::kBlock, t, "throw",
                      "unwinds with unbounded latency");
        continue;
      }
      if (next_is_call && alloc_calls().count(t.text)) {
        add_violation(fn, RtCategory::kAlloc, t, t.text,
                      "allocates/frees heap memory");
      } else if (after_member_op && next_is_call &&
                 growth_members().count(t.text)) {
        add_violation(fn, RtCategory::kAlloc, t, t.text,
                      "may grow container storage");
      } else if (!after_member_op && alloc_types().count(t.text) &&
                 allocating_type_use(k, end)) {
        add_violation(fn, RtCategory::kAlloc, t, t.text,
                      "constructs an allocating object");
      } else if (after_member_op && next_is_call &&
                 block_members().count(t.text)) {
        add_violation(fn, RtCategory::kBlock, t, t.text, "blocks");
      } else if (lock_types().count(t.text)) {
        add_violation(fn, RtCategory::kBlock, t, t.text,
                      "acquires a lock (may contend)");
      } else if (next_is_call && !after_member_op &&
                 block_calls().count(t.text)) {
        add_violation(fn, RtCategory::kBlock, t, t.text,
                      "performs blocking I/O or sleeps");
      } else if (!after_member_op && block_idents().count(t.text)) {
        add_violation(fn, RtCategory::kBlock, t, t.text, "performs stream I/O");
      } else if (next_is_call && !after_member_op &&
                 nondet_calls().count(t.text)) {
        add_violation(fn, RtCategory::kNondet, t, t.text,
                      "is a nondeterminism source");
      } else if (nondet_idents().count(t.text)) {
        add_violation(fn, RtCategory::kNondet, t, t.text,
                      "reads a wall clock / hardware entropy");
      }

      // --- call sites ---------------------------------------------------
      if (!next_is_call || control_keywords().count(t.text)) continue;
      std::size_t chain_start = k;
      std::string cname = t.text;
      while (chain_start >= begin + 2 && punct_is(c_[chain_start - 1], "::") &&
             c_[chain_start - 2].kind == TokenKind::kIdentifier) {
        cname = c_[chain_start - 2].text + "::" + cname;
        chain_start -= 2;
      }
      const Token* cprev = chain_start > 0 ? &c_[chain_start - 1] : nullptr;
      if (cprev != nullptr && (cprev->kind == TokenKind::kIdentifier ||
                               punct_is(*cprev, ">")))
        continue;  // `Type name(args)` declaration, not a call
      const bool member =
          cprev != nullptr &&
          (punct_is(*cprev, ".") || punct_is(*cprev, "->"));
      fn.calls.push_back({member ? t.text : cname, member,
                          member ? receiver_expr(k, begin) : std::string(),
                          t.line, t.col});
    }
  }

  // Is the allocating-type identifier at `k` used as a by-value
  // declaration or temporary (vs. a reference/pointer/template argument)?
  bool allocating_type_use(std::size_t k, std::size_t end) const {
    std::size_t j = k + 1;
    if (j < end && punct_is(c_[j], "<")) {
      const std::size_t a = skip_angles(j);
      if (a == j) return false;  // comparison, not a template argument list
      j = a;
    }
    if (j >= end) return false;
    const Token& n = c_[j];
    if (n.kind == TokenKind::kPunct) {
      if (n.text == "(" || n.text == "{") return true;  // temporary
      return false;  // & * :: > , ) ; — reference, scope, template arg...
    }
    if (n.kind == TokenKind::kIdentifier) {
      if (control_keywords().count(n.text)) return false;
      if (j + 1 >= end) return false;
      const Token& after = c_[j + 1];
      return punct_is(after, "(") || punct_is(after, "{") ||
             punct_is(after, "=") || punct_is(after, ";") ||
             punct_is(after, "[") || punct_is(after, ":");
    }
    return false;
  }

  CallGraph& graph_;
  const std::string& file_;
  const std::vector<Token>& c_;
  std::vector<Scope> scopes_;
};

// ---------------------------------------------------------------------------

void CallGraph::add_file(const std::string& display_path,
                         const std::vector<Token>& code,
                         const std::map<std::size_t, std::set<std::string>>&
                             allowed) {
  if (finalized_) return;  // add_file after finalize() is ignored
  if (!files_.insert(display_path).second) return;
  if (!allowed.empty()) allowed_[display_path] = allowed;
  CallGraphExtractor(*this, display_path, code).run();
}

bool CallGraph::has_file(const std::string& display_path) const {
  return files_.count(display_path) > 0;
}

std::size_t CallGraph::add_function(CgFunction fn) {
  const auto it = by_qname_.find(fn.qname);
  if (it == by_qname_.end()) {
    const std::size_t idx = functions_.size();
    by_qname_[fn.qname] = idx;
    functions_.push_back(std::move(fn));
    return idx;
  }
  // Merge: overloads, or a declaration meeting its definition. Annotations
  // union; the (first) definition owns the location.
  CgFunction& dst = functions_[it->second];
  if (fn.defined && !dst.defined) {
    dst.file = fn.file;
    dst.line = fn.line;
  }
  dst.defined = dst.defined || fn.defined;
  dst.is_method = dst.is_method || fn.is_method;
  dst.realtime = dst.realtime || fn.realtime;
  for (int k = 0; k < kRtCategoryCount; ++k) dst.ok[k] = dst.ok[k] || fn.ok[k];
  dst.calls.insert(dst.calls.end(), fn.calls.begin(), fn.calls.end());
  for (CgViolation& v : fn.violations) {
    const bool dup = std::any_of(
        dst.violations.begin(), dst.violations.end(), [&](const CgViolation& d) {
          return d.category == v.category && d.file == v.file &&
                 d.line == v.line && d.col == v.col && d.what == v.what;
        });
    if (!dup) dst.violations.push_back(std::move(v));
  }
  return it->second;
}

const CgFunction* CallGraph::find(const std::string& qname) const {
  const auto it = by_qname_.find(qname);
  return it == by_qname_.end() ? nullptr : &functions_[it->second];
}

namespace {

std::string last_component(const std::string& qname) {
  const std::size_t pos = qname.rfind("::");
  return pos == std::string::npos ? qname : qname.substr(pos + 2);
}

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

}  // namespace

void CallGraph::finalize() {
  if (finalized_) return;
  finalized_ = true;

  std::map<std::string, std::vector<std::size_t>> methods_by_leaf;
  std::map<std::string, std::vector<std::size_t>> free_by_leaf;
  for (std::size_t idx = 0; idx < functions_.size(); ++idx) {
    const std::string leaf = last_component(functions_[idx].qname);
    (functions_[idx].is_method ? methods_by_leaf : free_by_leaf)[leaf]
        .push_back(idx);
  }

  for (std::size_t idx = 0; idx < functions_.size(); ++idx) {
    CgFunction& fn = functions_[idx];
    std::set<std::size_t> edges;
    std::set<std::string> unresolved;
    // The caller's enclosing scopes, longest first, for unqualified and
    // implicit-this lookup: "a::b::C::m" yields "a::b::C", "a::b", "a", "".
    std::vector<std::string> prefixes;
    {
      std::string q = fn.qname;
      for (;;) {
        const std::size_t pos = q.rfind("::");
        if (pos == std::string::npos) break;
        q = q.substr(0, pos);
        prefixes.push_back(q);
      }
      prefixes.push_back("");
    }
    for (const CgCall& call : fn.calls) {
      bool resolved = false;
      std::set<std::size_t> targets;
      if (call.member) {
        // Method call through an object. When the receiver's last
        // component matches a recorded class-scope field, dispatch on the
        // declared type(s): resolve to this method name on exactly those
        // classes. `shard.local->update(...)` through a
        // `unique_ptr<MpcController> local` field reaches
        // MpcController::update alone instead of every `update` override
        // in the repo — which is what keeps an EUCON_REALTIME coordinator
        // from inheriting the violations of controllers it can never call.
        const auto hit = methods_by_leaf.find(call.name);
        if (hit != methods_by_leaf.end()) {
          const std::size_t cut = call.receiver.find_last_of(".>:");
          const std::string recv_leaf =
              cut == std::string::npos ? call.receiver
                                       : call.receiver.substr(cut + 1);
          const auto typed = recv_leaf.empty()
                                 ? field_types_.end()
                                 : field_types_.find(recv_leaf);
          if (typed != field_types_.end()) {
            for (const std::size_t t : hit->second) {
              const std::string& qn = functions_[t].qname;
              const std::size_t pos = qn.rfind("::");
              if (pos != std::string::npos &&
                  typed->second.count(last_component(qn.substr(0, pos)))) {
                targets.insert(t);
                resolved = true;
              }
            }
          }
          // No recorded type declares this method (or the receiver is not
          // a plain recorded field): every method with this name — an
          // over-approximation that can add edges but never drop one.
          if (!resolved) {
            targets.insert(hit->second.begin(), hit->second.end());
            resolved = true;
          }
        }
      }
      // Scope-walk: exact match of prefix::name, innermost scope first.
      // Covers plain calls, namespace-qualified calls seen from a sibling
      // namespace, and a method calling its own class's methods. Member
      // calls never take this path (or the free-function fallback below):
      // `obj.f()` must not bind cross-kind to a free `f` in an enclosing
      // scope — methods-by-leaf-name is their only resolution.
      for (const std::string& p : prefixes) {
        if (resolved || call.member) break;
        const std::string candidate =
            p.empty() ? call.name : p + "::" + call.name;
        const auto hit = by_qname_.find(candidate);
        if (hit != by_qname_.end()) {
          targets.insert(hit->second);
          resolved = true;
        }
      }
      if (!resolved && !call.member) {
        if (call.name.find("::") != std::string::npos) {
          // Qualified call: suffix match against every qualified name.
          const std::string suffix = "::" + call.name;
          for (const auto& [qname, target] : by_qname_) {
            if (ends_with(qname, suffix)) {
              targets.insert(target);
              resolved = true;
            }
          }
        } else {
          // Unqualified call: every free function with this name, plus
          // constructors (`T(...)` resolves to every `...::T::T`).
          const auto hit = free_by_leaf.find(call.name);
          if (hit != free_by_leaf.end()) {
            targets.insert(hit->second.begin(), hit->second.end());
            resolved = true;
          }
        }
      }
      if (!resolved) {
        const std::string leaf = last_component(call.name);
        const std::string ctor_suffix = "::" + leaf + "::" + leaf;
        for (const auto& [qname, target] : by_qname_) {
          if (ends_with(qname, ctor_suffix) || qname == leaf + "::" + leaf) {
            targets.insert(target);
            resolved = true;
          }
        }
      }
      if (!resolved) unresolved.insert(call.name);
      edges.insert(targets.begin(), targets.end());
    }
    fn.callees.assign(edges.begin(), edges.end());
    fn.unresolved.assign(unresolved.begin(), unresolved.end());
  }
}

}  // namespace eucon::analysis
