#include "obs/log.h"

#include <cstdio>
#include <cstdlib>
#include <mutex>

#include "obs/trace.h"

namespace atlas::obs {

namespace {

std::atomic<int> g_level{[] {
  const char* env = std::getenv("ATLAS_LOG_LEVEL");
  if (env == nullptr || *env == '\0') return static_cast<int>(LogLevel::kInfo);
  return static_cast<int>(parse_log_level(env));
}()};

struct SinkState {
  std::mutex mu;
  LogSink sink;  // empty -> stderr
};

SinkState& sink_state() {
  static SinkState* s = new SinkState();
  return *s;
}

const char* level_name(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug: return "debug";
    case LogLevel::kInfo: return "info";
    case LogLevel::kWarn: return "warn";
    case LogLevel::kError: return "error";
    case LogLevel::kOff: return "off";
  }
  return "?";
}

bool needs_quoting(std::string_view v) {
  if (v.empty()) return true;
  for (const char c : v) {
    if (c == ' ' || c == '"' || c == '=' || c == '\\' || c == '\n' ||
        c == '\t') {
      return true;
    }
  }
  return false;
}

}  // namespace

void set_log_level(LogLevel level) {
  g_level.store(static_cast<int>(level), std::memory_order_relaxed);
}

LogLevel parse_log_level(std::string_view name) {
  if (name == "debug") return LogLevel::kDebug;
  if (name == "info") return LogLevel::kInfo;
  if (name == "warn" || name == "warning") return LogLevel::kWarn;
  if (name == "error") return LogLevel::kError;
  if (name == "off" || name == "none") return LogLevel::kOff;
  return LogLevel::kInfo;
}

void set_log_sink(LogSink sink) {
  SinkState& s = sink_state();
  std::lock_guard<std::mutex> lock(s.mu);
  s.sink = std::move(sink);
}

bool log_enabled(LogLevel level) {
  return static_cast<int>(level) >= g_level.load(std::memory_order_relaxed) &&
         level != LogLevel::kOff;
}

LogLine::LogLine(LogLevel level, const char* module)
    : enabled_(log_enabled(level)) {
  if (!enabled_) return;
  char head[96];
  std::snprintf(head, sizeof(head), "ts=%.6f level=%s mod=%s",
                static_cast<double>(trace_now_us()) / 1e6, level_name(level),
                module);
  line_ = head;
}

LogLine::~LogLine() {
  if (!enabled_) return;
  line_ += '\n';
  SinkState& s = sink_state();
  std::lock_guard<std::mutex> lock(s.mu);
  if (s.sink) {
    s.sink(line_);
  } else {
    std::fputs(line_.c_str(), stderr);
  }
}

void LogLine::append_key(std::string_view key) {
  line_ += ' ';
  line_.append(key.data(), key.size());
  line_ += '=';
}

LogLine& LogLine::kv(std::string_view key, std::string_view value) {
  if (!enabled_) return *this;
  append_key(key);
  if (!needs_quoting(value)) {
    line_.append(value.data(), value.size());
    return *this;
  }
  line_ += '"';
  for (const char c : value) {
    switch (c) {
      case '"': line_ += "\\\""; break;
      case '\\': line_ += "\\\\"; break;
      case '\n': line_ += "\\n"; break;
      case '\t': line_ += "\\t"; break;
      default: line_ += c;
    }
  }
  line_ += '"';
  return *this;
}

LogLine& LogLine::kv(std::string_view key, double value) {
  if (!enabled_) return *this;
  append_key(key);
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.6g", value);
  line_ += buf;
  return *this;
}

LogLine& LogLine::kv_int(std::string_view key, long long value) {
  if (!enabled_) return *this;
  append_key(key);
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%lld", value);
  line_ += buf;
  return *this;
}

LogLine& LogLine::kv_uint(std::string_view key, unsigned long long value) {
  if (!enabled_) return *this;
  append_key(key);
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%llu", value);
  line_ += buf;
  return *this;
}

}  // namespace atlas::obs
