#include "spans.h"

#include <cstdio>

namespace servebench {

std::int64_t SpanLog::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              epoch_)
      .count();
}

std::size_t SpanLog::open(const char* name, std::uint32_t request) {
  SpanRecord r;
  r.name = name;
  r.request = request;
  r.tid = tid_;
  r.parent = stack_.empty() ? -1 : static_cast<std::int64_t>(stack_.back());
  r.start_ns = now_ns();
  records_.push_back(r);
  stack_.push_back(records_.size() - 1);
  return records_.size() - 1;
}

void SpanLog::close(std::size_t index) {
  SpanRecord& r = records_[index];
  r.end_ns = now_ns();
  stack_.pop_back();
  if (r.parent >= 0) {
    records_[static_cast<std::size_t>(r.parent)].child_ns +=
        r.end_ns - r.start_ns;
  }
}

void SpanLog::merge(const SpanLog& other) {
  const auto base = static_cast<std::int64_t>(records_.size());
  for (SpanRecord r : other.records_) {
    if (r.parent >= 0) r.parent += base;
    records_.push_back(r);
  }
}

std::map<std::uint32_t, std::map<std::string, std::int64_t>>
SpanLog::self_by_request() const {
  std::map<std::uint32_t, std::map<std::string, std::int64_t>> out;
  for (const SpanRecord& r : records_) out[r.request][r.name] += r.self_ns();
  return out;
}

std::string SpanLog::chrome_json() const {
  std::string out = "{\"traceEvents\":[";
  char buf[256];
  bool first = true;
  for (const SpanRecord& r : records_) {
    std::snprintf(buf, sizeof(buf),
                  "%s\n{\"name\":\"%s\",\"cat\":\"servebench\",\"ph\":\"X\","
                  "\"pid\":1,\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,"
                  "\"args\":{\"request\":%u}}",
                  first ? "" : ",", r.name, r.tid,
                  static_cast<double>(r.start_ns) / 1e3,
                  static_cast<double>(r.end_ns - r.start_ns) / 1e3, r.request);
    out += buf;
    first = false;
  }
  out += "\n],\"displayTimeUnit\":\"ms\"}\n";
  return out;
}

}  // namespace servebench
