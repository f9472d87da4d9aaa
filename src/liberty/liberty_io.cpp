#include "liberty/liberty_io.h"

#include <cctype>
#include <cstring>
#include <sstream>

#include "util/hash.h"
#include "util/serialize.h"
#include "util/strings.h"

namespace atlas::liberty {
namespace {

// ---------------------------------------------------------------------------
// Tokenizer
// ---------------------------------------------------------------------------

enum class TokKind { kIdent, kString, kPunct, kEnd };

struct Token {
  TokKind kind = TokKind::kEnd;
  std::string text;
  int line = 0;
};

class Lexer {
 public:
  explicit Lexer(std::string_view text) : text_(text) {}

  Token next() {
    skip_ws_and_comments();
    Token t;
    t.line = line_;
    if (pos_ >= text_.size()) return t;
    const char c = text_[pos_];
    if (c == '"') {
      ++pos_;
      const std::size_t start = pos_;
      while (pos_ < text_.size() && text_[pos_] != '"') {
        if (text_[pos_] == '\n') ++line_;
        ++pos_;
      }
      if (pos_ >= text_.size()) throw LibertyParseError("unterminated string", t.line);
      t.kind = TokKind::kString;
      t.text = std::string(text_.substr(start, pos_ - start));
      ++pos_;
      return t;
    }
    if (std::strchr("(){}:;,", c) != nullptr) {
      t.kind = TokKind::kPunct;
      t.text = std::string(1, c);
      ++pos_;
      return t;
    }
    const std::size_t start = pos_;
    while (pos_ < text_.size() && !std::isspace(static_cast<unsigned char>(text_[pos_])) &&
           std::strchr("(){}:;,\"", text_[pos_]) == nullptr) {
      ++pos_;
    }
    if (pos_ == start) throw LibertyParseError("unexpected character", line_);
    t.kind = TokKind::kIdent;
    t.text = std::string(text_.substr(start, pos_ - start));
    return t;
  }

 private:
  void skip_ws_and_comments() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '\n') {
        ++line_;
        ++pos_;
      } else if (std::isspace(static_cast<unsigned char>(c))) {
        ++pos_;
      } else if (c == '/' && pos_ + 1 < text_.size() && text_[pos_ + 1] == '/') {
        while (pos_ < text_.size() && text_[pos_] != '\n') ++pos_;
      } else if (c == '/' && pos_ + 1 < text_.size() && text_[pos_ + 1] == '*') {
        pos_ += 2;
        while (pos_ + 1 < text_.size() &&
               !(text_[pos_] == '*' && text_[pos_ + 1] == '/')) {
          if (text_[pos_] == '\n') ++line_;
          ++pos_;
        }
        if (pos_ + 1 >= text_.size()) throw LibertyParseError("unterminated comment", line_);
        pos_ += 2;
      } else {
        return;
      }
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  int line_ = 1;
};

// ---------------------------------------------------------------------------
// Recursive-descent group parser
// ---------------------------------------------------------------------------

class Parser {
 public:
  explicit Parser(std::string_view text) : lexer_(text) { advance(); }

  LibertyGroup parse_top() {
    LibertyGroup g = parse_group();
    if (cur_.kind != TokKind::kEnd) {
      throw LibertyParseError("trailing content after top-level group", cur_.line);
    }
    return g;
  }

 private:
  void advance() { cur_ = lexer_.next(); }

  void expect_punct(char c) {
    if (cur_.kind != TokKind::kPunct || cur_.text[0] != c) {
      throw LibertyParseError(std::string("expected '") + c + "', got '" +
                                  cur_.text + "'",
                              cur_.line);
    }
    advance();
  }

  bool at_punct(char c) const {
    return cur_.kind == TokKind::kPunct && cur_.text[0] == c;
  }

  // Expects the current token to be the group kind identifier.
  LibertyGroup parse_group() {
    if (cur_.kind != TokKind::kIdent) {
      throw LibertyParseError("expected group kind identifier", cur_.line);
    }
    LibertyGroup g;
    g.kind = cur_.text;
    advance();
    expect_punct('(');
    while (!at_punct(')')) {
      if (cur_.kind == TokKind::kEnd) throw LibertyParseError("unterminated group args", cur_.line);
      if (!at_punct(',')) g.args.push_back(cur_.text);
      advance();
    }
    expect_punct(')');
    expect_punct('{');
    while (!at_punct('}')) {
      if (cur_.kind == TokKind::kEnd) throw LibertyParseError("unterminated group body", cur_.line);
      parse_member(g);
    }
    expect_punct('}');
    return g;
  }

  void parse_member(LibertyGroup& g) {
    if (cur_.kind != TokKind::kIdent && cur_.kind != TokKind::kString) {
      throw LibertyParseError("expected attribute or group, got '" + cur_.text + "'",
                              cur_.line);
    }
    const std::string name = cur_.text;
    advance();
    if (at_punct(':')) {
      // Simple attribute: name : value ;
      advance();
      if (cur_.kind == TokKind::kEnd) throw LibertyParseError("missing attribute value", cur_.line);
      std::string value = cur_.text;
      advance();
      // Multi-token values (e.g. `1 ns`) are joined with spaces.
      while (!at_punct(';')) {
        if (cur_.kind == TokKind::kEnd) throw LibertyParseError("missing ';'", cur_.line);
        value += " " + cur_.text;
        advance();
      }
      expect_punct(';');
      g.attributes.emplace_back(name, value);
      return;
    }
    if (at_punct('(')) {
      // Either a complex attribute `name(v, ...);` or a child group
      // `name(args) { ... }`. Disambiguate after the closing paren.
      std::vector<std::string> args;
      advance();
      while (!at_punct(')')) {
        if (cur_.kind == TokKind::kEnd) throw LibertyParseError("unterminated '('", cur_.line);
        if (!at_punct(',')) args.push_back(cur_.text);
        advance();
      }
      expect_punct(')');
      if (at_punct('{')) {
        LibertyGroup child;
        child.kind = name;
        child.args = std::move(args);
        advance();  // consume '{'
        while (!at_punct('}')) {
          if (cur_.kind == TokKind::kEnd) throw LibertyParseError("unterminated group body", cur_.line);
          parse_member(child);
        }
        expect_punct('}');
        g.children.push_back(std::move(child));
      } else {
        if (at_punct(';')) advance();
        std::string joined;
        for (std::size_t i = 0; i < args.size(); ++i) {
          if (i > 0) joined += ", ";
          joined += args[i];
        }
        g.attributes.emplace_back(name, joined);
      }
      return;
    }
    throw LibertyParseError("expected ':' or '(' after '" + name + "'", cur_.line);
  }

  Lexer lexer_;
  Token cur_;
};

/// `text`, the value of attribute `name`, as one whole finite T.
template <typename T = double>
T number(std::string_view text, const char* name) {
  if (const auto v = util::parse_number<T>(text)) return *v;
  throw LibertyParseError(
      "'" + util::excerpt(text) + "' is not a finite number for " + name, 0);
}

std::vector<double> parse_number_list(std::string_view s, const char* name) {
  std::vector<double> out;
  for (const std::string& tok : util::split(s, ',')) {
    const auto t = util::trim(tok);
    if (t.empty()) continue;
    out.push_back(number(t, name));
  }
  return out;
}

std::string number_list(const std::vector<double>& v) {
  std::string out;
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i > 0) out += ", ";
    out += util::format("%.9g", v[i]);
  }
  return out;
}

}  // namespace

LibertyParseError::LibertyParseError(const std::string& message, int line)
    : std::runtime_error(util::format("liberty parse error (line %d): %s", line,
                                      message.c_str())),
      line_(line) {}

std::string LibertyGroup::attr(std::string_view name, std::string_view fallback) const {
  for (const auto& [k, v] : attributes) {
    if (k == name) return v;
  }
  return std::string(fallback);
}

bool LibertyGroup::has_attr(std::string_view name) const {
  for (const auto& [k, v] : attributes) {
    if (k == name) return true;
  }
  return false;
}

LibertyGroup parse_liberty_text(std::string_view text) {
  return Parser(text).parse_top();
}

std::string write_liberty(const Library& lib) {
  std::ostringstream os;
  os << "/* Generated by atlas liberty writer */\n";
  os << "library(" << lib.name() << ") {\n";
  os << "  delay_model : table_lookup;\n";
  os << "  time_unit : \"1ns\";\n";
  os << "  capacitive_load_unit(1, ff);\n";
  os << "  nom_voltage : " << util::format("%.9g", lib.voltage()) << ";\n";
  os << "  clock_period_ns : " << util::format("%.9g", lib.clock_period_ns())
     << ";\n\n";
  for (const Cell& c : lib.cells()) {
    os << "  cell(" << c.name << ") {\n";
    os << "    cell_function : \"" << cell_func_name(c.func) << "\";\n";
    os << "    node_type : \"" << node_type_name(c.type) << "\";\n";
    os << "    drive_strength : " << c.drive << ";\n";
    os << "    area : " << util::format("%.9g", c.area_um2) << ";\n";
    os << "    cell_leakage_power : " << util::format("%.9g", c.leakage_uw) << ";\n";
    if (c.clock_pin_energy_fj > 0) {
      os << "    clock_pin_energy : " << util::format("%.9g", c.clock_pin_energy_fj)
         << ";\n";
    }
    if (c.read_energy_fj > 0) {
      os << "    read_energy : " << util::format("%.9g", c.read_energy_fj) << ";\n";
      os << "    write_energy : " << util::format("%.9g", c.write_energy_fj) << ";\n";
    }
    for (const Pin& p : c.pins) {
      os << "    pin(" << p.name << ") {\n";
      os << "      direction : " << (p.dir == PinDir::kInput ? "input" : "output")
         << ";\n";
      if (p.dir == PinDir::kInput) {
        os << "      capacitance : " << util::format("%.9g", p.cap_ff) << ";\n";
        if (p.is_clock) os << "      clock : true;\n";
      } else {
        os << "      max_capacitance : " << util::format("%.9g", p.max_cap_ff)
           << ";\n";
      }
      os << "    }\n";
    }
    if (!c.energy_index_ff.empty()) {
      os << "    internal_power() {\n";
      os << "      index_1(\"" << number_list(c.energy_index_ff) << "\");\n";
      os << "      values(\"" << number_list(c.energy_fj) << "\");\n";
      os << "    }\n";
    }
    os << "  }\n";
  }
  os << "}\n";
  return os.str();
}

Library library_from_group(const LibertyGroup& root) {
  if (root.kind != "library" || root.args.empty()) {
    throw LibertyParseError("top-level group must be library(name)", 0);
  }
  const double voltage = number(root.attr("nom_voltage", "0.9"), "nom_voltage");
  const double period =
      number(root.attr("clock_period_ns", "1.0"), "clock_period_ns");
  Library lib(root.args[0], voltage, period);

  for (const LibertyGroup& cg : root.children) {
    if (cg.kind != "cell") continue;
    if (cg.args.empty()) throw LibertyParseError("cell group without name", 0);
    Cell c;
    c.name = cg.args[0];
    c.func = cell_func_from_name(cg.attr("cell_function"));
    c.type = cg.has_attr("node_type") ? node_type_from_name(cg.attr("node_type"))
                                      : node_type_of(c.func);
    c.drive = number<int>(cg.attr("drive_strength", "1"), "drive_strength");
    c.area_um2 = number(cg.attr("area", "0"), "area");
    c.leakage_uw =
        number(cg.attr("cell_leakage_power", "0"), "cell_leakage_power");
    c.clock_pin_energy_fj =
        number(cg.attr("clock_pin_energy", "0"), "clock_pin_energy");
    c.read_energy_fj = number(cg.attr("read_energy", "0"), "read_energy");
    c.write_energy_fj = number(cg.attr("write_energy", "0"), "write_energy");
    for (const LibertyGroup& sub : cg.children) {
      if (sub.kind == "pin") {
        if (sub.args.empty()) throw LibertyParseError("pin group without name", 0);
        Pin p;
        p.name = sub.args[0];
        p.dir = sub.attr("direction") == "output" ? PinDir::kOutput : PinDir::kInput;
        p.cap_ff = number(sub.attr("capacitance", "0"), "capacitance");
        p.max_cap_ff =
            number(sub.attr("max_capacitance", "0"), "max_capacitance");
        p.is_clock = sub.attr("clock", "false") == "true";
        c.pins.push_back(std::move(p));
      } else if (sub.kind == "internal_power") {
        c.energy_index_ff = parse_number_list(sub.attr("index_1"), "index_1");
        c.energy_fj = parse_number_list(sub.attr("values"), "values");
      }
    }
    lib.add_cell(std::move(c));
  }
  return lib;
}

Library parse_library(std::string_view text) {
  return library_from_group(parse_liberty_text(text));
}

void save_liberty_file(const Library& lib, const std::string& path) {
  util::write_file(path, write_liberty(lib));
}

Library load_liberty_file(const std::string& path) {
  return parse_library(util::read_file(path));
}

std::uint64_t content_hash(const Library& lib) {
  return util::fnv1a64(write_liberty(lib));
}

}  // namespace atlas::liberty
