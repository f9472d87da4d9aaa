// Liberty-format (subset) reader and writer.
//
// The paper's flow parses cell internal power, capacitance, and leakage out
// of the foundry .lib; this module reproduces that code path. The grammar
// subset is the standard Liberty group/attribute structure:
//
//   group_kind(arg, ...) { attr : value; "complex_attr"("a, b"); group...{...} }
//
// The generic AST (LibertyGroup) is exposed so tests can poke at structure,
// plus typed conversion to/from liberty::Library.
#pragma once

#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "liberty/library.h"

namespace atlas::liberty {

/// Generic parsed Liberty group.
struct LibertyGroup {
  std::string kind;                // e.g. "library", "cell", "pin"
  std::vector<std::string> args;   // group arguments
  /// Simple attributes `name : value;` and complex attributes
  /// `name(v1, v2, ...);` (values joined verbatim).
  std::vector<std::pair<std::string, std::string>> attributes;
  std::vector<LibertyGroup> children;

  /// First attribute value by name, or `fallback`.
  std::string attr(std::string_view name, std::string_view fallback = "") const;
  bool has_attr(std::string_view name) const;
};

class LibertyParseError : public std::runtime_error {
 public:
  LibertyParseError(const std::string& message, int line);
  int line() const { return line_; }

 private:
  int line_;
};

/// Parse Liberty text into its (single) top-level group.
LibertyGroup parse_liberty_text(std::string_view text);

/// Serialize a Library to Liberty text.
std::string write_liberty(const Library& lib);

/// Interpret a parsed Liberty AST as a Library (expects the writer's schema).
/// Throws LibertyParseError on a value that is not one whole finite number,
/// a negative physical value, a drive strength below 1, and anything the
/// library model rejects (unknown cell function, duplicate cell, ...).
Library library_from_group(const LibertyGroup& root);

/// Convenience: parse text straight into a Library (same errors).
Library parse_library(std::string_view text);

/// File round-trip helpers (throw std::runtime_error on I/O failure).
void save_liberty_file(const Library& lib, const std::string& path);
Library load_liberty_file(const std::string& path);

/// Content hash of a Library: FNV-1a over its canonical Liberty text
/// (write_liberty). Two libraries hash equal iff they serialize to the same
/// bytes, so a parse/write round-trip is hash-stable and any cell, LUT,
/// voltage or period difference changes the hash. The serve layer keys
/// cached design artifacts on (netlist hash, library hash) with this, so
/// models fine-tuned on different standard-cell substrates can never serve
/// each other's parsed netlists.
std::uint64_t content_hash(const Library& lib);

}  // namespace atlas::liberty
