// The repository's one JSON reader. Its three users are the fault-plan
// parser, the scenario parser, and the bench report checks
// (bench/report_checks.h), which read the BENCH_*.json files back. A
// recursive-descent parser plus typed accessors, dependency-free so the
// CLI needs no external JSON library. Not part of the public API
// (eucon/eucon.h does not export it).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace eucon::json {

struct Value {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string number_text;  // raw token, for byte-faithful re-rendering
  std::string string;
  std::vector<Value> items;                            // kArray
  std::vector<std::pair<std::string, Value>> members;  // kObject
};

// The member `key` of `object`, or null when `object` is not an object or
// has no such key.
const Value* member(const Value& object, std::string_view key);

// One parser's view of its documents. `context` prefixes every error:
// syntax errors read "<context> JSON: <what> at byte <offset>", schema
// errors "<context>: <what>"; both throw std::invalid_argument.
class Schema {
 public:
  // `allow_empty_arrays` = false makes array() reject [] as well.
  constexpr Schema(const char* context, bool allow_empty_arrays)
      : context_(context), allow_empty_arrays_(allow_empty_arrays) {}

  Value parse(const std::string& text) const;

  [[noreturn]] void fail(const std::string& what) const;

  double number(const Value& v, const std::string& key) const;
  int integer(const Value& v, const std::string& key) const;
  std::uint64_t u64(const Value& v, const std::string& key) const;
  const std::string& string(const Value& v, const std::string& key) const;
  const std::vector<Value>& array(const Value& v, const std::string& key) const;

  // Walks an object's members against a fixed key list via `handle(key,
  // value) -> bool`; any unhandled key is an error, so a typo never
  // silently drops a setting.
  template <typename Fn>
  void for_each_member(const Value& v, const std::string& what,
                       Fn handle) const {
    if (v.kind != Value::Kind::kObject) fail(what + " must be an object");
    for (const auto& [key, value] : v.members)
      if (!handle(key, value))
        fail("unknown key \"" + key + "\" in " + what);
  }

 private:
  const char* context_;
  bool allow_empty_arrays_;
};

}  // namespace eucon::json
