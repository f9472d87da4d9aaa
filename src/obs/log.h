// Structured leveled logging: one `key=value` line per event, with a
// monotonic timestamp shared with the span tracer (`ts=` is seconds since
// the trace epoch, so log lines and trace spans line up).
//
//   obs::LogLine(obs::LogLevel::kInfo, "serve")
//       .kv("event", "listening").kv("port", port);
//   -> ts=0.001234 level=info mod=serve event=listening port=7433
//
// The line is emitted on destruction, to stderr by default or to an
// installed sink (tests capture lines that way). Level filtering happens
// at construction: a suppressed LogLine never formats its values' keys —
// callers should still avoid expensive argument computation by checking
// log_enabled() first when the values themselves are costly.
//
// The minimum level defaults to kInfo and can be set programmatically or
// via env `ATLAS_LOG_LEVEL` (debug|info|warn|error|off), read once at
// first use.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <type_traits>

namespace atlas::obs {

enum class LogLevel : int {
  kDebug = 0,
  kInfo = 1,
  kWarn = 2,
  kError = 3,
  kOff = 4,
};

void set_log_level(LogLevel level);

/// "debug" -> kDebug etc.; unrecognized names return kInfo.
LogLevel parse_log_level(std::string_view name);

/// Replace the output sink (nullptr/empty restores stderr). The sink is
/// called with one complete line, newline included, under an internal
/// mutex — it may be invoked from any thread but never concurrently.
using LogSink = std::function<void(const std::string& line)>;
void set_log_sink(LogSink sink);

bool log_enabled(LogLevel level);

class LogLine {
 public:
  LogLine(LogLevel level, const char* module);
  ~LogLine();

  LogLine(const LogLine&) = delete;
  LogLine& operator=(const LogLine&) = delete;

  LogLine& kv(std::string_view key, std::string_view value);
  LogLine& kv(std::string_view key, const char* value) {
    return kv(key, std::string_view(value));
  }
  LogLine& kv(std::string_view key, const std::string& value) {
    return kv(key, std::string_view(value));
  }
  LogLine& kv(std::string_view key, double value);
  LogLine& kv(std::string_view key, bool value) {
    return kv(key, std::string_view(value ? "true" : "false"));
  }
  template <typename T,
            typename = std::enable_if_t<std::is_integral_v<T> &&
                                        !std::is_same_v<T, bool>>>
  LogLine& kv(std::string_view key, T value) {
    if constexpr (std::is_signed_v<T>) {
      return kv_int(key, static_cast<long long>(value));
    } else {
      return kv_uint(key, static_cast<unsigned long long>(value));
    }
  }

  bool enabled() const { return enabled_; }

 private:
  LogLine& kv_int(std::string_view key, long long value);
  LogLine& kv_uint(std::string_view key, unsigned long long value);
  void append_key(std::string_view key);

  bool enabled_;
  std::string line_;
};

}  // namespace atlas::obs
