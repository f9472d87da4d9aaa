// Small string helpers shared by the text-format parsers (Liberty, Verilog,
// SPEF) and report printers.
#pragma once

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

/// printf-style formatting into a std::string.
std::string format(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// Thousands-separated integer, e.g. 289384 -> "289,384".
std::string with_commas(long long v);

}  // namespace atlas::util
