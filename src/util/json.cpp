#include "util/json.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

#include "util/check.hpp"

namespace smpi::util {

JsonValue JsonValue::null() { return JsonValue(); }

JsonValue JsonValue::boolean(bool b) {
  JsonValue v;
  v.kind_ = Kind::kBool;
  v.bool_ = b;
  return v;
}

JsonValue JsonValue::number(double d) {
  JsonValue v;
  v.kind_ = Kind::kNumber;
  v.number_ = d;
  char buf[64];
  if (d == static_cast<double>(static_cast<long long>(d)) && std::abs(d) < 1e15) {
    std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(d));
  } else {
    std::snprintf(buf, sizeof buf, "%.17g", d);
  }
  v.text_ = buf;
  return v;
}

JsonValue JsonValue::number_text(std::string text) {
  JsonValue v;
  v.kind_ = Kind::kNumber;
  v.number_ = std::strtod(text.c_str(), nullptr);
  v.text_ = std::move(text);
  return v;
}

JsonValue JsonValue::string(std::string s) {
  JsonValue v;
  v.kind_ = Kind::kString;
  v.text_ = std::move(s);
  return v;
}

JsonValue JsonValue::array() {
  JsonValue v;
  v.kind_ = Kind::kArray;
  return v;
}

JsonValue JsonValue::object() {
  JsonValue v;
  v.kind_ = Kind::kObject;
  return v;
}

bool JsonValue::as_bool() const {
  SMPI_REQUIRE(is_bool(), "json value is not a boolean");
  return bool_;
}

double JsonValue::as_number() const {
  SMPI_REQUIRE(is_number(), "json value is not a number");
  return number_;
}

long long JsonValue::as_int() const {
  SMPI_REQUIRE(is_number(), "json value is not a number");
  // Range first: casting a double outside [-2^63, 2^63) is undefined.
  SMPI_REQUIRE(number_ >= -0x1p63 && number_ < 0x1p63, "json number is out of integer range");
  const auto ll = static_cast<long long>(number_);
  SMPI_REQUIRE(static_cast<double>(ll) == number_, "json number is not an integer");
  return ll;
}

const std::string& JsonValue::as_string() const {
  SMPI_REQUIRE(is_string(), "json value is not a string");
  return text_;
}

const std::vector<JsonValue>& JsonValue::items() const {
  SMPI_REQUIRE(is_array(), "json value is not an array");
  return items_;
}

const std::vector<std::pair<std::string, JsonValue>>& JsonValue::members() const {
  SMPI_REQUIRE(is_object(), "json value is not an object");
  return members_;
}

const JsonValue* JsonValue::find(const std::string& key) const {
  if (!is_object()) return nullptr;
  for (const auto& [k, v] : members_) {
    if (k == key) return &v;
  }
  return nullptr;
}

const JsonValue& JsonValue::at(const std::string& key, const std::string& context) const {
  const JsonValue* v = find(key);
  SMPI_REQUIRE(v != nullptr, context + ": missing key '" + key + "'");
  return *v;
}

JsonValue& JsonValue::append(JsonValue v) {
  SMPI_REQUIRE(is_array(), "append on a non-array json value");
  items_.push_back(std::move(v));
  return *this;
}

JsonValue& JsonValue::set(const std::string& key, JsonValue v) {
  SMPI_REQUIRE(is_object(), "set on a non-object json value");
  for (auto& [k, existing] : members_) {
    if (k == key) {
      existing = std::move(v);
      return *this;
    }
  }
  members_.emplace_back(key, std::move(v));
  return *this;
}

namespace {

void escape_into(std::string& out, const std::string& s) {
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void newline_indent(std::string& out, int indent, int depth) {
  out += '\n';
  out.append(static_cast<std::size_t>(indent) * static_cast<std::size_t>(depth), ' ');
}

}  // namespace

void JsonValue::dump_to(std::string& out, int indent, int depth) const {
  const bool pretty = indent >= 0;
  switch (kind_) {
    case Kind::kNull: out += "null"; break;
    case Kind::kBool: out += bool_ ? "true" : "false"; break;
    case Kind::kNumber: out += text_; break;
    case Kind::kString: escape_into(out, text_); break;
    case Kind::kArray: {
      if (items_.empty()) {
        out += "[]";
        break;
      }
      out += '[';
      for (std::size_t i = 0; i < items_.size(); ++i) {
        if (i > 0) out += ',';
        if (pretty) newline_indent(out, indent, depth + 1);
        items_[i].dump_to(out, indent, depth + 1);
      }
      if (pretty) newline_indent(out, indent, depth);
      out += ']';
      break;
    }
    case Kind::kObject: {
      if (members_.empty()) {
        out += "{}";
        break;
      }
      out += '{';
      for (std::size_t i = 0; i < members_.size(); ++i) {
        if (i > 0) out += ',';
        if (pretty) newline_indent(out, indent, depth + 1);
        escape_into(out, members_[i].first);
        out += pretty ? ": " : ":";
        members_[i].second.dump_to(out, indent, depth + 1);
      }
      if (pretty) newline_indent(out, indent, depth);
      out += '}';
      break;
    }
  }
}

std::string JsonValue::dump(int indent) const {
  std::string out;
  dump_to(out, indent, 0);
  return out;
}

namespace {

class Parser {
 public:
  Parser(const std::string& text, const std::string& where) : text_(text), where_(where) {}

  JsonValue parse_document() {
    JsonValue v = parse_value();
    skip_whitespace();
    if (pos_ != text_.size()) fail("trailing characters after the document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& message) const {
    int line = 1, col = 1;
    for (std::size_t i = 0; i < pos_ && i < text_.size(); ++i) {
      if (text_[i] == '\n') {
        ++line;
        col = 1;
      } else {
        ++col;
      }
    }
    throw ContractError(where_ + ":" + std::to_string(line) + ":" + std::to_string(col) + ": " +
                        message);
  }

  void skip_whitespace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    skip_whitespace();
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(const char* literal) {
    const std::size_t len = std::strlen(literal);
    if (text_.compare(pos_, len, literal) == 0) {
      pos_ += len;
      return true;
    }
    return false;
  }

  JsonValue parse_value() {
    const char c = peek();
    switch (c) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': return JsonValue::string(parse_string_body());
      case 't':
        if (consume_literal("true")) return JsonValue::boolean(true);
        fail("invalid literal");
      case 'f':
        if (consume_literal("false")) return JsonValue::boolean(false);
        fail("invalid literal");
      case 'n':
        if (consume_literal("null")) return JsonValue::null();
        fail("invalid literal");
      default: return parse_number();
    }
  }

  std::string parse_string_body() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c == '\\') {
        if (pos_ >= text_.size()) fail("unterminated escape");
        const char esc = text_[pos_++];
        switch (esc) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          case 'r': out += '\r'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'u': {
            if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              const char h = text_[pos_++];
              code <<= 4;
              if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
              else fail("invalid \\u escape");
            }
            // Encode as UTF-8 (BMP only; surrogate pairs are out of scope).
            if (code < 0x80) {
              out += static_cast<char>(code);
            } else if (code < 0x800) {
              out += static_cast<char>(0xC0 | (code >> 6));
              out += static_cast<char>(0x80 | (code & 0x3F));
            } else {
              out += static_cast<char>(0xE0 | (code >> 12));
              out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
              out += static_cast<char>(0x80 | (code & 0x3F));
            }
            break;
          }
          default: fail("unknown escape");
        }
      } else {
        out += c;
      }
    }
  }

  JsonValue parse_number() {
    skip_whitespace();
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E' || text_[pos_] == '+' ||
            text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) fail("invalid value");
    const std::string literal = text_.substr(start, pos_ - start);
    char* end = nullptr;
    std::strtod(literal.c_str(), &end);
    if (end == nullptr || *end != '\0') {
      pos_ = start;
      fail("malformed number '" + literal + "'");
    }
    return JsonValue::number_text(literal);
  }

  JsonValue parse_array() {
    expect('[');
    JsonValue out = JsonValue::array();
    if (peek() == ']') {
      ++pos_;
      return out;
    }
    while (true) {
      out.append(parse_value());
      const char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == ']') {
        ++pos_;
        return out;
      }
      fail("expected ',' or ']'");
    }
  }

  JsonValue parse_object() {
    expect('{');
    JsonValue out = JsonValue::object();
    if (peek() == '}') {
      ++pos_;
      return out;
    }
    while (true) {
      if (peek() != '"') fail("object key must be a string");
      std::string key = parse_string_body();
      expect(':');
      if (out.find(key) != nullptr) fail("duplicate object key '" + key + "'");
      out.set(key, parse_value());
      const char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == '}') {
        ++pos_;
        return out;
      }
      fail("expected ',' or '}'");
    }
  }

  const std::string& text_;
  const std::string& where_;
  std::size_t pos_ = 0;
};

}  // namespace

JsonValue parse_json(const std::string& text, const std::string& where) {
  return Parser(text, where).parse_document();
}

JsonValue parse_json_file(const std::string& path) {
  std::ifstream in(path);
  SMPI_REQUIRE(in.good(), "cannot open json file: " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return parse_json(buffer.str(), path);
}

}  // namespace smpi::util
