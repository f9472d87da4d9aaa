// Small string helpers shared by the text-format parsers (Liberty, Verilog,
// SPEF) and report printers.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace atlas::util {

/// Trim ASCII whitespace from both ends.
std::string_view trim(std::string_view s);

/// Split on a single character; empty fields are kept.
std::vector<std::string> split(std::string_view s, char sep);

/// Split on any run of ASCII whitespace; empty fields are dropped.
std::vector<std::string> split_ws(std::string_view s);

bool starts_with(std::string_view s, std::string_view prefix);

/// Pops the next line off the front of `rest` into `line`, without its
/// '\n'; false once `rest` is empty. As with std::getline, a last line
/// with no '\n' is still returned and a final '\n' starts no empty line.
bool next_line(std::string_view& rest, std::string_view& line);

/// `s` as a T (double or int) when the whole of it is one number in
/// std::from_chars syntax (no surrounding whitespace, no leading '+'), else
/// nullopt: trailing junk, out-of-range values, nan and inf are rejected.
template <typename T>
std::optional<T> parse_number(std::string_view s);

/// `s` as an error message may quote it: unchanged up to 64 bytes, else
/// its first 64 bytes, "..." and its full length. Parsers use it for every
/// input word they echo, so a hostile upload cannot make the error a server
/// sends back as large as the upload itself.
std::string excerpt(std::string_view s);

/// printf-style formatting into a std::string.
std::string format(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// Thousands-separated integer, e.g. 289384 -> "289,384".
std::string with_commas(long long v);

}  // namespace atlas::util
