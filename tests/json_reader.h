// Minimal JSON reader for tests that validate JSON the code emits (the
// Chrome trace export, stats documents). Parses objects/arrays/strings/
// numbers into a tagged struct; throws on malformed input so
// EXPECT_NO_THROW doubles as a well-formedness check.
#pragma once

#include <cctype>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

namespace atlas::test {

struct Json {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool b = false;
  double num = 0.0;
  std::string str;
  std::vector<Json> arr;
  std::map<std::string, Json> obj;

  const Json& at(const std::string& key) const {
    auto it = obj.find(key);
    if (it == obj.end()) throw std::runtime_error("missing key " + key);
    return it->second;
  }
  bool has(const std::string& key) const { return obj.count(key) != 0; }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : s_(text) {}

  Json parse() {
    Json v = value();
    skip_ws();
    if (pos_ != s_.size()) throw std::runtime_error("trailing JSON garbage");
    return v;
  }

 private:
  void skip_ws() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
  }
  char peek() {
    skip_ws();
    if (pos_ >= s_.size()) throw std::runtime_error("unexpected end of JSON");
    return s_[pos_];
  }
  void expect(char c) {
    if (peek() != c) {
      throw std::runtime_error(std::string("expected '") + c + "' at " +
                               std::to_string(pos_));
    }
    ++pos_;
  }

  Json value() {
    switch (peek()) {
      case '{': return object();
      case '[': return array();
      case '"': return string_value();
      case 't': return literal("true", [] { Json j; j.type = Json::Type::kBool; j.b = true; return j; }());
      case 'f': return literal("false", [] { Json j; j.type = Json::Type::kBool; return j; }());
      case 'n': return literal("null", Json{});
      default: return number();
    }
  }

  Json literal(const std::string& word, Json result) {
    if (s_.compare(pos_, word.size(), word) != 0) {
      throw std::runtime_error("bad JSON literal at " + std::to_string(pos_));
    }
    pos_ += word.size();
    return result;
  }

  Json object() {
    expect('{');
    Json j;
    j.type = Json::Type::kObject;
    if (peek() == '}') { ++pos_; return j; }
    while (true) {
      Json key = string_value();
      expect(':');
      j.obj.emplace(key.str, value());
      if (peek() == ',') { ++pos_; continue; }
      expect('}');
      return j;
    }
  }

  Json array() {
    expect('[');
    Json j;
    j.type = Json::Type::kArray;
    if (peek() == ']') { ++pos_; return j; }
    while (true) {
      j.arr.push_back(value());
      if (peek() == ',') { ++pos_; continue; }
      expect(']');
      return j;
    }
  }

  Json string_value() {
    expect('"');
    Json j;
    j.type = Json::Type::kString;
    while (true) {
      if (pos_ >= s_.size()) throw std::runtime_error("unterminated string");
      char c = s_[pos_++];
      if (c == '"') return j;
      if (c == '\\') {
        if (pos_ >= s_.size()) throw std::runtime_error("bad escape");
        char e = s_[pos_++];
        switch (e) {
          case '"': j.str += '"'; break;
          case '\\': j.str += '\\'; break;
          case '/': j.str += '/'; break;
          case 'n': j.str += '\n'; break;
          case 't': j.str += '\t'; break;
          case 'r': j.str += '\r'; break;
          case 'b': j.str += '\b'; break;
          case 'f': j.str += '\f'; break;
          case 'u':
            if (pos_ + 4 > s_.size()) throw std::runtime_error("bad \\u");
            pos_ += 4;  // validated but not decoded; trace export is ASCII
            j.str += '?';
            break;
          default: throw std::runtime_error("bad escape char");
        }
        continue;
      }
      j.str += c;
    }
  }

  Json number() {
    std::size_t start = pos_;
    if (pos_ < s_.size() && s_[pos_] == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) throw std::runtime_error("bad JSON number");
    Json j;
    j.type = Json::Type::kNumber;
    j.num = std::stod(s_.substr(start, pos_ - start));
    return j;
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

}  // namespace atlas::test
