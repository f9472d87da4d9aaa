#include "netlist/verilog_io.h"

#include <algorithm>
#include <array>
#include <cstdint>
#include <optional>
#include <sstream>
#include <unordered_map>
#include <utility>
#include <vector>

#include "util/serialize.h"
#include "util/strings.h"

namespace atlas::netlist {

VerilogParseError::VerilogParseError(const std::string& message, int line)
    : std::runtime_error(
          util::format("verilog parse error (line %d): %s", line, message.c_str())),
      line_(line) {}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

std::string write_verilog(const Netlist& nl) {
  std::ostringstream os;
  os << "// Generated by atlas verilog writer\n";
  os << "// library: " << nl.library().name() << "\n";
  if (nl.clock_net() != kNoNet) {
    os << "(* clock_net = \"" << nl.net(nl.clock_net()).name << "\" *)\n";
  }
  const auto pis = nl.primary_inputs();
  // Outputs that are also inputs come first, then output-only nets, each
  // group in net-id order: the parser numbers every input before the
  // output-only nets, so this order survives write -> parse -> write.
  auto pos_ = nl.primary_outputs();
  std::stable_partition(pos_.begin(), pos_.end(), [&nl](NetId id) {
    return nl.net(id).is_primary_input;
  });
  os << "module " << nl.name() << " (";
  bool first = true;
  for (NetId id : pis) {
    os << (first ? "" : ", ") << nl.net(id).name;
    first = false;
  }
  for (NetId id : pos_) {
    // An input that is also an output is already listed as an input port.
    if (nl.net(id).is_primary_input) continue;
    os << (first ? "" : ", ") << nl.net(id).name;
    first = false;
  }
  os << ");\n";
  for (NetId id : pis) os << "  input " << nl.net(id).name << ";\n";
  for (NetId id : pos_) os << "  output " << nl.net(id).name << ";\n";
  for (NetId id = 0; id < nl.num_nets(); ++id) {
    const Net& n = nl.net(id);
    if (n.is_primary_input || n.is_primary_output) continue;
    os << "  wire " << n.name << ";\n";
  }
  for (CellInstId id = 0; id < nl.num_cells(); ++id) {
    const CellInst& inst = nl.cell(id);
    const liberty::Cell& lc = nl.lib_cell(id);
    if (inst.submodule != kNoSubmodule) {
      const Submodule& sm = nl.submodules()[static_cast<std::size_t>(inst.submodule)];
      os << "  (* submodule = \"" << sm.name << "\", role = \"" << sm.role
         << "\", component = \""
         << (sm.component >= 0 ? nl.components()[static_cast<std::size_t>(sm.component)]
                               : std::string("none"))
         << "\" *)\n";
    }
    os << "  " << lc.name << " " << inst.name << " (";
    for (std::size_t p = 0; p < lc.pins.size(); ++p) {
      if (p > 0) os << ", ";
      os << "." << lc.pins[p].name << "(" << nl.net(inst.pin_nets[p]).name << ")";
    }
    os << ");\n";
  }
  os << "endmodule\n";
  return os.str();
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------
//
// Zero-copy: tokens, attribute values and the interning keys are views into
// the caller's text, which outlives the parse. Only what the Netlist keeps
// (net, cell, sub-module and component names) is copied into owned strings.

namespace {

// Byte classes of the accepted subset; the letters, digits and whitespace
// are those of the "C" locale.
enum : std::uint8_t { kSpace = 1, kIdentChar = 2, kPunctChar = 4 };

constexpr std::array<std::uint8_t, 256> make_char_classes() {
  std::array<std::uint8_t, 256> t{};
  const auto set = [&t](std::string_view chars, std::uint8_t cls) {
    for (const char c : chars) t[static_cast<unsigned char>(c)] = cls;
  };
  set(" \t\n\v\f\r", kSpace);
  set("0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_$[]", kIdentChar);
  set("(),;.=", kPunctChar);
  return t;
}

constexpr std::array<std::uint8_t, 256> kCharClasses = make_char_classes();

bool has_class(char c, std::uint8_t cls) {
  return (kCharClasses[static_cast<unsigned char>(c)] & cls) != 0;
}

struct Token {
  enum Kind { kIdent, kString, kPunct, kAttrOpen, kAttrClose, kEnd } kind = kEnd;
  std::string_view text;  // empty for (* *) and end of input
  int line = 0;
};

/// The token as an error message names it.
std::string describe(const Token& t) {
  switch (t.kind) {
    case Token::kAttrOpen: return "'(*'";
    case Token::kAttrClose: return "'*)'";
    case Token::kEnd: return "end of input";
    default: return "'" + util::excerpt(t.text) + "'";
  }
}

class Lexer {
 public:
  explicit Lexer(std::string_view text) : text_(text) {}

  Token next() {
    skip();
    Token t;
    t.line = line_;
    if (pos_ >= text_.size()) return t;
    const char c = text_[pos_];
    const char after = pos_ + 1 < text_.size() ? text_[pos_ + 1] : '\0';
    if (c == '(' && after == '*') {
      t.kind = Token::kAttrOpen;
      pos_ += 2;
      return t;
    }
    if (c == '*' && after == ')') {
      t.kind = Token::kAttrClose;
      pos_ += 2;
      return t;
    }
    if (c == '"') {
      const std::size_t close = text_.find('"', pos_ + 1);
      if (close == std::string_view::npos) {
        throw VerilogParseError("unterminated string", t.line);
      }
      t.kind = Token::kString;
      t.text = text_.substr(pos_ + 1, close - pos_ - 1);
      pos_ = close + 1;
      return t;
    }
    if (has_class(c, kPunctChar)) {
      t.kind = Token::kPunct;
      t.text = text_.substr(pos_, 1);
      ++pos_;
      return t;
    }
    const std::size_t start = pos_;
    while (pos_ < text_.size() && has_class(text_[pos_], kIdentChar)) ++pos_;
    if (pos_ == start) throw VerilogParseError("unexpected character", line_);
    t.kind = Token::kIdent;
    t.text = text_.substr(start, pos_ - start);
    return t;
  }

 private:
  void skip() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      const char after = c == '/' && pos_ + 1 < text_.size() ? text_[pos_ + 1] : '\0';
      if (c == '\n') {
        ++line_;
        ++pos_;
      } else if (has_class(c, kSpace)) {
        ++pos_;
      } else if (c == '/' && after == '/') {
        pos_ = std::min(text_.find('\n', pos_ + 2), text_.size());
      } else if (c == '/' && after == '*') {
        // An unterminated comment runs to the end of the text; its newlines
        // count only within the "*/" search window, which stops a byte short.
        const std::size_t body = pos_ + 2;
        const std::size_t close = text_.find("*/", body);
        const std::size_t body_end =
            close != std::string_view::npos ? close : std::max(body, text_.size() - 1);
        line_ += static_cast<int>(
            std::count(text_.begin() + static_cast<std::ptrdiff_t>(body),
                       text_.begin() + static_cast<std::ptrdiff_t>(body_end), '\n'));
        pos_ = close != std::string_view::npos ? close + 2 : text_.size();
      } else {
        return;
      }
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  int line_ = 1;
};

class Parser {
 public:
  Parser(std::string_view text, const liberty::Library& lib)
      : lexer_(text), lib_(lib) {
    advance();
  }

  Netlist parse() {
    std::optional<std::string_view> clock_net;
    if (cur_.kind == Token::kAttrOpen) {
      parse_attrs();
      clock_net = attr("clock_net");
      attrs_.clear();
    }
    expect_ident("module");
    Netlist nl(std::string(take_ident("module name")), lib_);

    // The port list only repeats the input/output declarations.
    expect_punct('(');
    while (!at_punct(')')) {
      if (cur_.kind == Token::kEnd) {
        throw VerilogParseError("unterminated port list", cur_.line);
      }
      advance();
    }
    expect_punct(')');
    expect_punct(';');

    // Body.
    while (!(cur_.kind == Token::kIdent && cur_.text == "endmodule")) {
      if (cur_.kind == Token::kEnd) throw VerilogParseError("missing endmodule", cur_.line);
      if (cur_.kind == Token::kAttrOpen) {
        parse_attrs();
        continue;
      }
      if (cur_.kind != Token::kIdent) {
        throw VerilogParseError("unexpected token " + describe(cur_), cur_.line);
      }
      if (cur_.text == "input" || cur_.text == "output" || cur_.text == "wire") {
        parse_decl(nl);
      } else {
        parse_instance(nl);
      }
    }
    advance();  // endmodule

    if (clock_net) {
      const auto it = nets_.find(*clock_net);
      if (it == nets_.end()) {
        throw VerilogParseError(
            "clock_net names unknown net " + util::excerpt(*clock_net), 0);
      }
      nl.set_clock_net(it->second);
    }
    return nl;
  }

 private:
  void advance() { cur_ = lexer_.next(); }

  bool at_punct(char c) const {
    return cur_.kind == Token::kPunct && cur_.text[0] == c;
  }

  void expect_punct(char c) {
    if (!at_punct(c)) {
      throw VerilogParseError(
          util::format("expected '%c', got %s", c, describe(cur_).c_str()),
          cur_.line);
    }
    advance();
  }

  void expect_ident(std::string_view kw) {
    if (cur_.kind != Token::kIdent || cur_.text != kw) {
      throw VerilogParseError("expected '" + std::string(kw) + "'", cur_.line);
    }
    advance();
  }

  std::string_view take_ident(const char* what) {
    if (cur_.kind != Token::kIdent) {
      throw VerilogParseError(std::string("expected ") + what, cur_.line);
    }
    const std::string_view s = cur_.text;
    advance();
    return s;
  }

  /// Reads one `(* key = value, ... *)` block into attrs_, replacing the
  /// previous block.
  void parse_attrs() {
    attrs_.clear();
    advance();  // consume (*
    while (cur_.kind != Token::kAttrClose) {
      if (cur_.kind == Token::kEnd) throw VerilogParseError("unterminated attribute", cur_.line);
      const std::string_view key = take_ident("attribute name");
      expect_punct('=');
      if (cur_.kind != Token::kString && cur_.kind != Token::kIdent) {
        throw VerilogParseError("expected attribute value", cur_.line);
      }
      attrs_.emplace_back(key, cur_.text);
      advance();
      if (at_punct(',')) advance();
    }
    advance();  // consume *)
  }

  /// The value of `key` in the current attribute block; a repeated key's
  /// last value wins.
  std::optional<std::string_view> attr(std::string_view key) const {
    for (auto it = attrs_.rbegin(); it != attrs_.rend(); ++it) {
      if (it->first == key) return it->second;
    }
    return std::nullopt;
  }

  void parse_decl(Netlist& nl) {
    const std::string_view kind = take_ident("declaration");
    while (true) {
      const int line = cur_.line;
      const NetId id = intern_net(nl, take_ident("net name"));
      if (kind == "input") {
        try {
          nl.mark_primary_input(id);
        } catch (const std::invalid_argument& e) {
          throw VerilogParseError(e.what(), line);
        }
      }
      if (kind == "output") nl.mark_primary_output(id);
      if (at_punct(',')) {
        advance();
        continue;
      }
      break;
    }
    expect_punct(';');
  }

  void parse_instance(Netlist& nl) {
    const int line = cur_.line;
    const std::string_view cell_name = take_ident("cell type");
    const auto lib_id = lib_.find(cell_name);
    if (!lib_id) {
      throw VerilogParseError("unknown library cell '" + util::excerpt(cell_name) + "'",
                              cur_.line);
    }
    const liberty::Cell& lc = lib_.cell(*lib_id);
    const std::string_view inst_name = take_ident("instance name");
    expect_punct('(');
    std::vector<NetId> pin_nets(lc.pins.size(), kNoNet);
    while (!at_punct(')')) {
      expect_punct('.');
      const std::string_view pin_name = take_ident("pin name");
      expect_punct('(');
      const std::string_view net_name = take_ident("net name");
      expect_punct(')');
      const auto pin = lc.pin_index(pin_name);
      if (!pin) {
        throw VerilogParseError(
            "cell " + lc.name + " has no pin " + util::excerpt(pin_name), cur_.line);
      }
      NetId& slot = pin_nets[static_cast<std::size_t>(*pin)];
      if (slot != kNoNet) {
        throw VerilogParseError("pin " + util::excerpt(pin_name) + " connected twice",
                                cur_.line);
      }
      slot = intern_net(nl, net_name);
      if (at_punct(',')) advance();
    }
    expect_punct(')');
    expect_punct(';');

    SubmoduleId sm = kNoSubmodule;
    if (!attrs_.empty()) {
      sm = intern_submodule(nl);
      attrs_.clear();
    }
    for (std::size_t p = 0; p < pin_nets.size(); ++p) {
      if (pin_nets[p] == kNoNet) {
        throw VerilogParseError("instance " + util::excerpt(inst_name) + " leaves pin " +
                                    lc.pins[p].name + " unconnected",
                                cur_.line);
      }
    }
    try {
      nl.add_cell(std::string(inst_name), *lib_id, std::move(pin_nets), sm);
    } catch (const std::invalid_argument& e) {
      throw VerilogParseError(e.what(), line);
    }
  }

  NetId intern_net(Netlist& nl, std::string_view name) {
    const auto [it, inserted] = nets_.try_emplace(name, kNoNet);
    if (inserted) it->second = nl.add_net(std::string(name));
    return it->second;
  }

  SubmoduleId intern_submodule(Netlist& nl) {
    const auto name = attr("submodule");
    if (!name) return kNoSubmodule;
    const auto [it, inserted] = submodules_.try_emplace(*name, kNoSubmodule);
    if (!inserted) return it->second;
    int comp = -1;
    if (const auto c = attr("component"); c && *c != "none") {
      const auto [cit, added] = components_.try_emplace(*c, -1);
      if (added) cit->second = nl.add_component(std::string(*c));
      comp = cit->second;
    }
    it->second = nl.add_submodule(std::string(*name),
                                  std::string(attr("role").value_or("")), comp);
    return it->second;
  }

  Lexer lexer_;
  const liberty::Library& lib_;
  Token cur_;
  std::vector<std::pair<std::string_view, std::string_view>> attrs_;
  std::unordered_map<std::string_view, NetId> nets_;
  std::unordered_map<std::string_view, SubmoduleId> submodules_;
  std::unordered_map<std::string_view, int> components_;
};

}  // namespace

Netlist parse_verilog(std::string_view text, const liberty::Library& lib) {
  return Parser(text, lib).parse();
}

void save_verilog_file(const Netlist& nl, const std::string& path) {
  util::write_file(path, write_verilog(nl));
}

Netlist load_verilog_file(const std::string& path, const liberty::Library& lib) {
  return parse_verilog(util::read_file(path), lib);
}

}  // namespace atlas::netlist
