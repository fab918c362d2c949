#include "common/json.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <limits>

#include "common/strings.hpp"

namespace qmap {
namespace {

/// Recursive-descent JSON parser over a string_view with line tracking.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Json parse_document() {
    Json value = parse_value();
    skip_whitespace();
    if (pos_ != text_.size()) fail("trailing characters after JSON document");
    return value;
  }

 private:
  [[noreturn]] void fail(const std::string& message) const {
    int line = 1;
    int column = 1;
    for (std::size_t i = 0; i < pos_ && i < text_.size(); ++i) {
      if (text_[i] == '\n') {
        ++line;
        column = 1;
      } else {
        ++column;
      }
    }
    throw ParseError("JSON: " + message, line, column);
  }

  void skip_whitespace() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
        ++pos_;
      } else if (c == '/' && pos_ + 1 < text_.size() &&
                 text_[pos_ + 1] == '/') {
        // Allow // comments: device config files benefit from annotations.
        while (pos_ < text_.size() && text_[pos_] != '\n') ++pos_;
      } else {
        break;
      }
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  char next() {
    const char c = peek();
    ++pos_;
    return c;
  }

  void expect(char c) {
    if (next() != c) {
      --pos_;
      fail(std::string("expected '") + c + "'");
    }
  }

  bool consume_literal(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) != literal) return false;
    pos_ += literal.size();
    return true;
  }

  Json parse_value() {
    skip_whitespace();
    const char c = peek();
    switch (c) {
      case '{':
        return parse_object();
      case '[':
        return parse_array();
      case '"':
        return Json(parse_string());
      case 't':
        if (consume_literal("true")) return Json(true);
        fail("invalid literal");
      case 'f':
        if (consume_literal("false")) return Json(false);
        fail("invalid literal");
      case 'n':
        if (consume_literal("null")) return Json(nullptr);
        fail("invalid literal");
      default:
        return parse_number();
    }
  }

  Json parse_object() {
    expect('{');
    JsonObject object;
    skip_whitespace();
    if (peek() == '}') {
      ++pos_;
      return Json(std::move(object));
    }
    while (true) {
      skip_whitespace();
      std::string key = parse_string();
      skip_whitespace();
      expect(':');
      object[std::move(key)] = parse_value();
      skip_whitespace();
      const char c = next();
      if (c == '}') return Json(std::move(object));
      if (c != ',') {
        --pos_;
        fail("expected ',' or '}' in object");
      }
    }
  }

  Json parse_array() {
    expect('[');
    JsonArray array;
    skip_whitespace();
    if (peek() == ']') {
      ++pos_;
      return Json(std::move(array));
    }
    while (true) {
      array.push_back(parse_value());
      skip_whitespace();
      const char c = next();
      if (c == ']') return Json(std::move(array));
      if (c != ',') {
        --pos_;
        fail("expected ',' or ']' in array");
      }
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      const char c = next();
      if (c == '"') return out;
      if (c == '\\') {
        const char escape = next();
        switch (escape) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'u': {
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              const char h = next();
              code <<= 4;
              if (h >= '0' && h <= '9') code += static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f') code += static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') code += static_cast<unsigned>(h - 'A' + 10);
              else fail("invalid \\u escape");
            }
            // Encode as UTF-8 (BMP only; surrogate pairs unsupported).
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
          default:
            fail("invalid escape sequence");
        }
      } else if (static_cast<unsigned char>(c) < 0x20) {
        fail("unescaped control character in string");
      } else {
        out += c;
      }
    }
  }

  Json parse_number() {
    const std::size_t begin = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == begin) fail("invalid number");
    double value = 0;
    const auto result =
        std::from_chars(text_.data() + begin, text_.data() + pos_, value);
    if (result.ec != std::errc() || result.ptr != text_.data() + pos_) {
      fail("invalid number");
    }
    return Json(value);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

void dump_string(std::string& out, const std::string& s) {
  out += json_quote(s);
}

}  // namespace

Json::Type Json::type() const {
  return static_cast<Type>(value_.index());
}

bool Json::as_bool() const {
  if (const bool* b = std::get_if<bool>(&value_)) return *b;
  throw ParseError("JSON: value is not a boolean");
}

double Json::as_number() const {
  if (const double* d = std::get_if<double>(&value_)) return *d;
  throw ParseError("JSON: value is not a number");
}

int Json::as_int() const {
  const double d = as_number();
  const double rounded = std::nearbyint(d);
  if (std::abs(d - rounded) > 1e-9) {
    throw ParseError("JSON: value is not an integer");
  }
  // Casting a double outside int's range is undefined behaviour.
  if (rounded < std::numeric_limits<int>::min() ||
      rounded > std::numeric_limits<int>::max()) {
    throw ParseError("JSON: integer out of int range");
  }
  return static_cast<int>(rounded);
}

const std::string& Json::as_string() const {
  if (const std::string* s = std::get_if<std::string>(&value_)) return *s;
  throw ParseError("JSON: value is not a string");
}

const JsonArray& Json::as_array() const {
  if (const JsonArray* a = std::get_if<JsonArray>(&value_)) return *a;
  throw ParseError("JSON: value is not an array");
}

const JsonObject& Json::as_object() const {
  if (const JsonObject* o = std::get_if<JsonObject>(&value_)) return *o;
  throw ParseError("JSON: value is not an object");
}

JsonArray& Json::as_array() {
  if (JsonArray* a = std::get_if<JsonArray>(&value_)) return *a;
  throw ParseError("JSON: value is not an array");
}

JsonObject& Json::as_object() {
  if (JsonObject* o = std::get_if<JsonObject>(&value_)) return *o;
  throw ParseError("JSON: value is not an object");
}

const Json& Json::at(const std::string& key) const {
  const JsonObject& object = as_object();
  const auto it = object.find(key);
  if (it == object.end()) {
    throw ParseError("JSON: missing key \"" + key + "\"");
  }
  return it->second;
}

const Json* Json::find(const std::string& key) const {
  if (!is_object()) return nullptr;
  const JsonObject& object = as_object();
  const auto it = object.find(key);
  return it == object.end() ? nullptr : &it->second;
}

bool Json::contains(const std::string& key) const {
  return find(key) != nullptr;
}

const Json& Json::at(std::size_t index) const {
  const JsonArray& array = as_array();
  if (index >= array.size()) throw ParseError("JSON: array index out of range");
  return array[index];
}

std::size_t Json::size() const {
  if (is_array()) return as_array().size();
  if (is_object()) return as_object().size();
  throw ParseError("JSON: size() on non-container");
}

Json& Json::operator[](const std::string& key) {
  if (is_null()) value_ = JsonObject{};
  return as_object()[key];
}

Json Json::parse(std::string_view text) {
  return Parser(text).parse_document();
}

std::string Json::dump(int indent) const {
  std::string out;
  dump_impl(out, indent, 0);
  return out;
}

void Json::dump_impl(std::string& out, int indent, int depth) const {
  const auto newline_and_pad = [&](int d) {
    if (indent < 0) return;
    out += '\n';
    out.append(static_cast<std::size_t>(indent * d), ' ');
  };
  switch (type()) {
    case Type::Null:
      out += "null";
      break;
    case Type::Bool:
      out += std::get<bool>(value_) ? "true" : "false";
      break;
    case Type::Number: {
      const double d = std::get<double>(value_);
      if (std::nearbyint(d) == d && std::abs(d) < 1e15) {
        out += std::to_string(static_cast<long long>(d));
      } else {
        // 17 significant digits round-trip IEEE doubles exactly through
        // the parser.
        append_double(out, d, 17);
      }
      break;
    }
    case Type::String:
      dump_string(out, std::get<std::string>(value_));
      break;
    case Type::Array: {
      const JsonArray& array = std::get<JsonArray>(value_);
      if (array.empty()) {
        out += "[]";
        break;
      }
      out += '[';
      for (std::size_t i = 0; i < array.size(); ++i) {
        if (i != 0) out += ',';
        newline_and_pad(depth + 1);
        array[i].dump_impl(out, indent, depth + 1);
      }
      newline_and_pad(depth);
      out += ']';
      break;
    }
    case Type::Object: {
      const JsonObject& object = std::get<JsonObject>(value_);
      if (object.empty()) {
        out += "{}";
        break;
      }
      out += '{';
      bool first = true;
      for (const auto& [key, value] : object) {
        if (!first) out += ',';
        first = false;
        newline_and_pad(depth + 1);
        dump_string(out, key);
        out += indent < 0 ? ":" : ": ";
        value.dump_impl(out, indent, depth + 1);
      }
      newline_and_pad(depth);
      out += '}';
      break;
    }
  }
}

}  // namespace qmap
