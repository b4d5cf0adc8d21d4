#include "eucon/json_reader.h"

#include <cmath>
#include <sstream>

#include "common/check.h"

namespace eucon::json {

namespace {

class Reader {
 public:
  Reader(const std::string& text, const char* context)
      : text_(text), context_(context) {}

  Value parse() {
    Value v = value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    EUCON_FAIL_INVALID(std::string(context_) + " JSON: " + what +
                       " at byte " + std::to_string(pos_));
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  char peek() {
    skip_ws();
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(const char* lit) {
    const std::size_t len = std::char_traits<char>::length(lit);
    if (text_.compare(pos_, len, lit) != 0) return false;
    pos_ += len;
    return true;
  }

  Value value() {
    const char c = peek();
    if (c == '{') return object();
    if (c == '[') return array();
    if (c == '"') {
      Value v;
      v.kind = Value::Kind::kString;
      v.string = string_body();
      return v;
    }
    if (consume_literal("true")) {
      Value v;
      v.kind = Value::Kind::kBool;
      v.boolean = true;
      return v;
    }
    if (consume_literal("false")) {
      Value v;
      v.kind = Value::Kind::kBool;
      v.boolean = false;
      return v;
    }
    return number();
  }

  std::string string_body() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c == '\\') {
        if (pos_ >= text_.size()) fail("unterminated escape");
        const char e = text_[pos_++];
        switch (e) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          case 'r': out += '\r'; break;
          default: fail("unsupported string escape");
        }
      } else {
        out += c;
      }
    }
  }

  Value number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) ++pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      const bool numeric = (c >= '0' && c <= '9') || c == '.' || c == 'e' ||
                           c == 'E' || c == '-' || c == '+';
      if (!numeric) break;
      ++pos_;
    }
    if (pos_ == start) fail("expected a value");
    Value v;
    v.kind = Value::Kind::kNumber;
    v.number_text = text_.substr(start, pos_ - start);
    std::istringstream in(v.number_text);
    in >> v.number;
    if (in.fail() || !in.eof() || !std::isfinite(v.number))
      fail("malformed number '" + v.number_text + "'");
    return v;
  }

  Value array() {
    expect('[');
    Value v;
    v.kind = Value::Kind::kArray;
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      v.items.push_back(value());
      const char c = peek();
      ++pos_;
      if (c == ']') return v;
      if (c != ',') fail("expected ',' or ']' in array");
    }
  }

  Value object() {
    expect('{');
    Value v;
    v.kind = Value::Kind::kObject;
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      skip_ws();
      std::string key = string_body();
      expect(':');
      v.members.emplace_back(std::move(key), value());
      const char c = peek();
      ++pos_;
      if (c == '}') return v;
      if (c != ',') fail("expected ',' or '}' in object");
    }
  }

  const std::string& text_;
  const char* context_;
  std::size_t pos_ = 0;
};

}  // namespace

Value Schema::parse(const std::string& text) const {
  return Reader(text, context_).parse();
}

void Schema::fail(const std::string& what) const {
  EUCON_FAIL_INVALID(std::string(context_) + ": " + what);
}

double Schema::number(const Value& v, const std::string& key) const {
  if (v.kind != Value::Kind::kNumber) fail(key + " must be a number");
  return v.number;
}

int Schema::integer(const Value& v, const std::string& key) const {
  const double d = number(v, key);
  const double rounded = std::floor(d + 0.5);
  if (std::abs(d - rounded) > 1e-9 || std::abs(d) > 1e15)
    fail(key + " must be an integer");
  return static_cast<int>(rounded);
}

std::uint64_t Schema::u64(const Value& v, const std::string& key) const {
  const double d = number(v, key);
  if (d < 0.0 || std::abs(d - std::floor(d + 0.5)) > 1e-9 || d > 1e15)
    fail(key + " must be a non-negative integer");
  return static_cast<std::uint64_t>(d + 0.5);
}

const std::string& Schema::string(const Value& v,
                                  const std::string& key) const {
  if (v.kind != Value::Kind::kString) fail(key + " must be a string");
  return v.string;
}

const std::vector<Value>& Schema::array(const Value& v,
                                        const std::string& key) const {
  if (v.kind != Value::Kind::kArray) fail(key + " must be an array");
  if (!allow_empty_arrays_ && v.items.empty())
    fail(key + " must not be an empty array");
  return v.items;
}

}  // namespace eucon::json
