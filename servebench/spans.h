// In-memory span recorder for the benchmark's traced replay.
//
// The benchmark records its own spans around each call it makes into a
// layer of the program (parse, graph build, simulation, encoder, heads,
// protocol codec, wire round trips). Spans nest per thread; a span's self
// time is its duration minus the time its direct children cover. Nothing
// is written while spans are recorded: the log is rendered as a Chrome
// trace and a per-layer table once the run ends.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace servebench {

struct SpanRecord {
  const char* name = "";      // static string: the layer name
  std::uint32_t request = 0;  // request index the span belongs to
  std::uint32_t tid = 0;      // recording thread (one log per thread)
  std::int64_t parent = -1;   // index into the same log, -1 = root
  std::int64_t start_ns = 0;  // steady clock, relative to the log epoch
  std::int64_t end_ns = 0;
  std::int64_t child_ns = 0;  // time covered by direct children

  std::int64_t self_ns() const { return end_ns - start_ns - child_ns; }
};

/// Spans recorded by one thread. Not thread-safe: give each recording
/// thread its own log and merge() them afterwards.
class SpanLog {
 public:
  using Clock = std::chrono::steady_clock;

  SpanLog(std::uint32_t tid, Clock::time_point epoch)
      : tid_(tid), epoch_(epoch) {}

  std::size_t open(const char* name, std::uint32_t request);
  void close(std::size_t index);

  const std::vector<SpanRecord>& records() const { return records_; }
  /// Append another thread's records (parent indices are rebased).
  void merge(const SpanLog& other);

  /// Self time per (request, layer) in nanoseconds.
  std::map<std::uint32_t, std::map<std::string, std::int64_t>> self_by_request()
      const;

  /// Chrome trace_event JSON ("X" complete events, one tid per thread).
  std::string chrome_json() const;

 private:
  std::int64_t now_ns() const;

  std::uint32_t tid_;
  Clock::time_point epoch_;
  std::vector<SpanRecord> records_;
  std::vector<std::size_t> stack_;  // open spans, innermost last
};

/// RAII span: opens on construction, closes on scope exit.
class Span {
 public:
  Span(SpanLog* log, const char* name, std::uint32_t request)
      : log_(log), index_(log ? log->open(name, request) : 0) {}
  ~Span() {
    if (log_) log_->close(index_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanLog* log_;
  std::size_t index_;
};

}  // namespace servebench
