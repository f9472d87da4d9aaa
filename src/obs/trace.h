// Span tracing with Chrome trace_event JSON export and distributed
// trace-context propagation.
//
// `ObsSpan{category, name}` is an RAII scope: construction stamps a start
// time, destruction records a complete ("ph":"X") event into a bounded
// in-memory ring. The ring renders as Chrome trace JSON loadable in
// chrome://tracing or https://ui.perfetto.dev, giving a per-thread,
// nested, time-based view of a run — the same fine-grained time axis
// ATLAS gives a design's power, turned on the pipeline itself.
//
// Distributed tracing: a request that fans across processes (client ->
// atlas_router -> atlas_serve shard) carries a `TraceContext` — a 128-bit
// trace id, the sender's span id, and a sampled flag. Each process installs
// the incoming context as a thread-local ambient via `TraceContextScope`;
// every ObsSpan constructed under that scope inherits the trace id, links
// its parent to the enclosing span, and becomes the ambient parent for its
// own children. Span rings drained from each process therefore merge into
// one coherent timeline (merge_chrome_json): events carry the real OS pid
// plus a process_name metadata record, so Perfetto shows client, router and
// every shard as separate processes linked by trace_id/parent_span_id args.
//
// Cost model:
//
//   * disabled (default), no ambient context: one relaxed atomic load, one
//     thread-local read and two branches per span — a few nanoseconds,
//     cheap enough to leave spans in every hot path (bench_micro
//     BM_ObsSpanDisabled pins this; target < 5 ns);
//   * ambient context present but unsampled (or tracing disabled): span-id
//     chaining only — an atomic increment and two thread-local writes, so
//     downstream processes still receive correct parent links;
//   * enabled + sampled: two steady_clock reads plus one short critical
//     section to push into the ring. Spans are meant to be coarse (a flow
//     phase, a pool batch, a request) — never a per-cell loop body.
//
// The ring is fixed-capacity and overwrites its oldest events; the dropped
// count is exported in the JSON so truncation is visible, and recording
// never allocates unboundedly no matter how long a daemon runs.
//
// Enabling: `--trace-out <file>` on atlas_cli / atlas_serve / atlas_router /
// atlas_client, or env `ATLAS_TRACE=<file>` (flag wins). Tools call
// Trace::flush_file() at exit; daemons additionally answer the admin-gated
// `trace_dump` wire request with drain_chrome_json().
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace atlas::obs {

namespace detail {
extern std::atomic<bool> g_trace_enabled;

struct AmbientContext {
  std::uint64_t trace_hi = 0;
  std::uint64_t trace_lo = 0;
  std::uint64_t span_id = 0;
  bool sampled = false;
};

/// Thread-local ambient trace context. Inline so ObsSpan's fast path (no
/// tracing, no context) stays a handful of inlined instructions.
inline thread_local AmbientContext g_ambient{};
}  // namespace detail

/// True when spans are being recorded. Relaxed: a span racing an
/// enable/disable may be missed or dropped, never corrupted.
inline bool trace_enabled() {
  return detail::g_trace_enabled.load(std::memory_order_relaxed);
}

/// Microseconds since the process's trace epoch (first use). Monotonic;
/// shared by the tracer and the structured logger so their timestamps
/// line up.
std::uint64_t trace_now_us();

/// Distributed trace context: which trace a piece of work belongs to and
/// which span is its parent. `span_id` is the *current* span — a child
/// created under this context uses it as parent_span_id. A context with a
/// zero trace id is "absent" (valid() == false): spans behave exactly as
/// the pre-distributed tracer did.
struct TraceContext {
  std::uint64_t trace_hi = 0;  // 128-bit trace id, high half
  std::uint64_t trace_lo = 0;  // low half
  std::uint64_t span_id = 0;   // enclosing span (0 = root)
  /// Record spans for this request? Propagated end-to-end so one client
  /// decision samples (or not) the whole fleet's rings consistently; a
  /// process still needs tracing enabled locally to actually record.
  bool sampled = false;

  bool valid() const { return (trace_hi | trace_lo) != 0; }
};

/// The calling thread's ambient context (absent by default).
TraceContext current_trace_context();

/// Fresh process-unique span id (never 0).
std::uint64_t next_span_id();

/// New root context: random 128-bit trace id, no parent span.
TraceContext make_root_context(bool sampled);

/// RAII: install `ctx` as the thread's ambient context for a request
/// scope; restores the previous ambient on destruction. Used at process
/// entry points (one per request), not per span — ObsSpan maintains the
/// parent chain underneath automatically.
class TraceContextScope {
 public:
  explicit TraceContextScope(const TraceContext& ctx);
  ~TraceContextScope();

  TraceContextScope(const TraceContextScope&) = delete;
  TraceContextScope& operator=(const TraceContextScope&) = delete;

 private:
  TraceContext prev_;
};

/// Ids attached to one recorded event (all-zero for spans recorded outside
/// any ambient context — the single-process tracer's behavior).
struct SpanIds {
  std::uint64_t trace_hi = 0;
  std::uint64_t trace_lo = 0;
  std::uint64_t span_id = 0;
  std::uint64_t parent_span_id = 0;
};

/// Structured view of one recorded event, for tests and in-process
/// assertions (the JSON export is the interchange format).
struct TraceEventView {
  std::string name;
  std::string category;
  std::uint32_t tid = 0;
  std::uint64_t start_us = 0;
  std::uint64_t dur_us = 0;
  SpanIds ids;
};

class Trace {
 public:
  static constexpr std::size_t kDefaultCapacity = 1 << 16;

  /// Start recording into a fresh ring of `capacity` events. Idempotent
  /// (re-enabling keeps already-recorded events if the capacity matches).
  static void enable(std::size_t capacity = kDefaultCapacity);
  static void disable();
  /// Drop all recorded events (and the dropped counter).
  static void clear();

  /// Where flush_file() writes; empty disables flushing.
  static void set_output_path(const std::string& path);
  static std::string output_path();

  /// Label this process in merged traces ("atlas_serve:7433", ...). Shows
  /// up as a Chrome process_name metadata event; default "atlas".
  static void set_process_name(const std::string& name);

  /// Record one complete event. Called by ~ObsSpan; public so tests and
  /// non-RAII call sites can record directly. No-op while disabled.
  static void record_complete(const char* category, const char* name,
                              std::uint64_t start_us, std::uint64_t dur_us,
                              const SpanIds& ids = {});
  static void record_complete(const char* category, const std::string& name,
                              std::uint64_t start_us, std::uint64_t dur_us,
                              const SpanIds& ids = {});

  /// Events currently held (<= capacity) and events overwritten so far.
  static std::size_t size();
  static std::uint64_t dropped();

  /// Copy of the ring, oldest-first (test/debug introspection).
  static std::vector<TraceEventView> snapshot();

  /// Chrome trace JSON: {"traceEvents":[{"name","cat","ph":"X","ts","dur",
  /// "pid","tid","args":{...}}...], "displayTimeUnit":"ms",
  /// "atlasDroppedEvents":N}. ts/dur are microseconds; pid is the real OS
  /// pid; a process_name metadata event labels it; spans recorded under a
  /// TraceContext carry args.trace_id / span_id / parent_span_id (hex).
  static std::string render_chrome_json();

  /// render_chrome_json() + clear(), atomically with respect to concurrent
  /// recording — the `trace_dump` wire request's drain semantics: every
  /// event is reported by exactly one dump.
  static std::string drain_chrome_json();

  /// Write render_chrome_json() to the configured output path. Returns
  /// false (without touching the filesystem) when no path is set; throws
  /// std::runtime_error when the file cannot be written.
  static bool flush_file();
};

/// Append `s` to `out` as the body of a JSON string literal (quotes,
/// backslashes and control characters escaped).
void append_json_escaped(std::string& out, const char* s);

/// Merge Chrome trace JSON documents (as produced by render_chrome_json,
/// one per process) into a single document: traceEvents concatenated,
/// dropped counts summed. Inputs that don't look like a trace document are
/// skipped. Events keep their original pid/tid, so a merged file shows one
/// lane per (process, thread).
std::string merge_chrome_json(const std::vector<std::string>& traces);

/// RAII span. The const char* arguments must outlive the span (string
/// literals in practice); the std::string overload copies for dynamic
/// names like "prepare_C3".
///
/// Under an ambient TraceContext the span allocates an id, records its
/// parent link, and becomes the ambient parent for spans nested inside it
/// (restored on destruction) — even when recording is off, so the id chain
/// stays correct across processes that *are* recording.
class ObsSpan {
 public:
  ObsSpan(const char* category, const char* name)
      : category_(category), name_(name) {
    init();
  }

  ObsSpan(const char* category, std::string name)
      : category_(category), dynamic_name_(std::move(name)) {
    init();
  }

  ~ObsSpan() {
    if (restore_ || active_) finish();
  }

  ObsSpan(const ObsSpan&) = delete;
  ObsSpan& operator=(const ObsSpan&) = delete;

  /// This span's id (0 when no ambient context was present).
  std::uint64_t span_id() const { return ids_.span_id; }

  /// Context for propagating *this* span as the parent of downstream work
  /// (a forwarded request). Absent when the span has no ambient context.
  TraceContext context() const;

 private:
  void init() {
    // Fast path: tracing off and no ambient context — nothing to do.
    if (!trace_enabled() && (detail::g_ambient.trace_hi |
                             detail::g_ambient.trace_lo) == 0) {
      return;
    }
    init_slow();
  }

  void init_slow();
  void finish();

  bool active_ = false;   // recording into the ring
  bool restore_ = false;  // ambient span_id was advanced; restore on exit
  bool sampled_ = false;
  const char* category_ = nullptr;
  const char* name_ = nullptr;
  std::string dynamic_name_;
  std::uint64_t start_us_ = 0;
  std::uint64_t saved_span_id_ = 0;
  SpanIds ids_;
};

/// If env `ATLAS_TRACE` names a file and tracing is not already enabled,
/// enable it and set the output path. Returns true when tracing is active
/// after the call.
bool init_trace_from_env();

}  // namespace atlas::obs
