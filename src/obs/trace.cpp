#include "obs/trace.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <stdexcept>
#include <vector>

#if defined(_WIN32)
#include <process.h>
#else
#include <unistd.h>
#endif

namespace atlas::obs {

namespace detail {
std::atomic<bool> g_trace_enabled{false};
}  // namespace detail

namespace {

struct TraceEvent {
  std::string name;
  const char* category = "";
  std::uint32_t tid = 0;
  std::uint64_t start_us = 0;
  std::uint64_t dur_us = 0;
  SpanIds ids;
};

/// Ring state behind one mutex. Spans are coarse (phases, batches,
/// requests), so contention on this lock is negligible next to the work
/// the spans measure. Leaked at exit for the same lifetime reason as the
/// metrics registry.
struct Ring {
  std::mutex mu;
  std::vector<TraceEvent> events;
  std::size_t capacity = Trace::kDefaultCapacity;
  std::size_t write = 0;     // next slot to write
  std::uint64_t total = 0;   // events ever recorded
  std::string output_path;
  std::string process_name = "atlas";
};

Ring& ring() {
  static Ring* r = new Ring();
  return *r;
}

std::chrono::steady_clock::time_point trace_epoch() {
  static const std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
  return epoch;
}

std::uint32_t this_thread_id() {
  static std::atomic<std::uint32_t> next{1};
  thread_local std::uint32_t tid = next.fetch_add(1);
  return tid;
}

std::uint64_t os_pid() {
#if defined(_WIN32)
  return static_cast<std::uint64_t>(_getpid());
#else
  return static_cast<std::uint64_t>(::getpid());
#endif
}

// obs sits below util in the dependency order, so the splitmix64
// finalizer lives here too (same constants as util/hash).
std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Per-process id seed: ids must differ across the processes of a fleet
/// even when they start in the same microsecond, so mix pid, wall clock,
/// and an address (ASLR) into the counter base.
std::uint64_t process_seed() {
  static const std::uint64_t seed = [] {
    std::uint64_t s = splitmix64(os_pid());
    s ^= splitmix64(static_cast<std::uint64_t>(
        std::chrono::system_clock::now().time_since_epoch().count()));
    s ^= splitmix64(reinterpret_cast<std::uintptr_t>(&ring));
    return s;
  }();
  return seed;
}

void append_u64(std::string& out, std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%llu", static_cast<unsigned long long>(v));
  out += buf;
}

void append_hex(std::string& out, std::uint64_t v, int digits) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%0*llx", digits,
                static_cast<unsigned long long>(v));
  out += buf;
}

/// Body of render_chrome_json; caller holds r.mu.
std::string render_locked(Ring& r) {
  const std::uint64_t pid = os_pid();
  std::string out = "{\"traceEvents\":[";
  // Process-name metadata event so merged multi-process traces label
  // each lane.
  out += "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":";
  append_u64(out, pid);
  out += ",\"tid\":0,\"args\":{\"name\":\"";
  append_json_escaped(out, r.process_name.c_str());
  out += "\"}}";
  const std::size_t n = r.events.size();
  // Oldest-first: once wrapped, the oldest surviving event sits at the
  // write cursor.
  const std::size_t first = n < r.capacity ? 0 : r.write;
  for (std::size_t i = 0; i < n; ++i) {
    const TraceEvent& ev = r.events[(first + i) % n];
    out += ',';
    out += "{\"name\":\"";
    append_json_escaped(out, ev.name.c_str());
    out += "\",\"cat\":\"";
    append_json_escaped(out, ev.category);
    out += "\",\"ph\":\"X\",\"ts\":";
    append_u64(out, ev.start_us);
    out += ",\"dur\":";
    append_u64(out, ev.dur_us);
    out += ",\"pid\":";
    append_u64(out, pid);
    out += ",\"tid\":";
    append_u64(out, ev.tid);
    if ((ev.ids.trace_hi | ev.ids.trace_lo) != 0) {
      out += ",\"args\":{\"trace_id\":\"";
      append_hex(out, ev.ids.trace_hi, 16);
      append_hex(out, ev.ids.trace_lo, 16);
      out += "\",\"span_id\":\"";
      append_hex(out, ev.ids.span_id, 16);
      out += "\",\"parent_span_id\":\"";
      append_hex(out, ev.ids.parent_span_id, 16);
      out += "\"}";
    }
    out += '}';
  }
  out += "],\"displayTimeUnit\":\"ms\",\"atlasDroppedEvents\":";
  append_u64(out, r.total > n ? r.total - n : 0);
  out += '}';
  return out;
}

}  // namespace

void append_json_escaped(std::string& out, const char* s) {
  for (; *s != '\0'; ++s) {
    const char c = *s;
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

std::uint64_t trace_now_us() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - trace_epoch())
          .count());
}

TraceContext current_trace_context() {
  const detail::AmbientContext& a = detail::g_ambient;
  TraceContext ctx;
  ctx.trace_hi = a.trace_hi;
  ctx.trace_lo = a.trace_lo;
  ctx.span_id = a.span_id;
  ctx.sampled = a.sampled;
  return ctx;
}

std::uint64_t next_span_id() {
  static std::atomic<std::uint64_t> counter{0};
  const std::uint64_t raw =
      counter.fetch_add(1, std::memory_order_relaxed) ^ process_seed();
  const std::uint64_t id = splitmix64(raw);
  return id != 0 ? id : 1;
}

TraceContext make_root_context(bool sampled) {
  TraceContext ctx;
  ctx.trace_hi = next_span_id();
  ctx.trace_lo = next_span_id();
  ctx.span_id = 0;
  ctx.sampled = sampled;
  return ctx;
}

TraceContextScope::TraceContextScope(const TraceContext& ctx) {
  detail::AmbientContext& a = detail::g_ambient;
  prev_.trace_hi = a.trace_hi;
  prev_.trace_lo = a.trace_lo;
  prev_.span_id = a.span_id;
  prev_.sampled = a.sampled;
  a.trace_hi = ctx.trace_hi;
  a.trace_lo = ctx.trace_lo;
  a.span_id = ctx.span_id;
  a.sampled = ctx.sampled;
}

TraceContextScope::~TraceContextScope() {
  detail::AmbientContext& a = detail::g_ambient;
  a.trace_hi = prev_.trace_hi;
  a.trace_lo = prev_.trace_lo;
  a.span_id = prev_.span_id;
  a.sampled = prev_.sampled;
}

void ObsSpan::init_slow() {
  detail::AmbientContext& a = detail::g_ambient;
  if ((a.trace_hi | a.trace_lo) != 0) {
    ids_.trace_hi = a.trace_hi;
    ids_.trace_lo = a.trace_lo;
    ids_.parent_span_id = a.span_id;
    ids_.span_id = next_span_id();
    saved_span_id_ = a.span_id;
    a.span_id = ids_.span_id;
    restore_ = true;
    sampled_ = a.sampled;
    active_ = sampled_ && trace_enabled();
  } else {
    sampled_ = true;
    active_ = trace_enabled();
  }
  if (active_) start_us_ = trace_now_us();
}

void ObsSpan::finish() {
  if (restore_) detail::g_ambient.span_id = saved_span_id_;
  if (!active_) return;
  const std::uint64_t end_us = trace_now_us();
  const std::uint64_t dur = end_us > start_us_ ? end_us - start_us_ : 0;
  if (name_ != nullptr) {
    Trace::record_complete(category_, name_, start_us_, dur, ids_);
  } else {
    Trace::record_complete(category_, dynamic_name_, start_us_, dur, ids_);
  }
}

TraceContext ObsSpan::context() const {
  TraceContext ctx;
  ctx.trace_hi = ids_.trace_hi;
  ctx.trace_lo = ids_.trace_lo;
  ctx.span_id = ids_.span_id;
  ctx.sampled = sampled_;
  return ctx;
}

void Trace::enable(std::size_t capacity) {
  if (capacity < 1) capacity = 1;
  Ring& r = ring();
  {
    std::lock_guard<std::mutex> lock(r.mu);
    if (r.capacity != capacity || r.events.capacity() < capacity) {
      r.events.clear();
      r.events.reserve(capacity);
      r.capacity = capacity;
      r.write = 0;
      r.total = 0;
    }
  }
  trace_epoch();  // pin the epoch no later than the first enable
  detail::g_trace_enabled.store(true, std::memory_order_relaxed);
}

void Trace::disable() {
  detail::g_trace_enabled.store(false, std::memory_order_relaxed);
}

void Trace::clear() {
  Ring& r = ring();
  std::lock_guard<std::mutex> lock(r.mu);
  r.events.clear();
  r.write = 0;
  r.total = 0;
}

void Trace::set_output_path(const std::string& path) {
  Ring& r = ring();
  std::lock_guard<std::mutex> lock(r.mu);
  r.output_path = path;
}

std::string Trace::output_path() {
  Ring& r = ring();
  std::lock_guard<std::mutex> lock(r.mu);
  return r.output_path;
}

void Trace::set_process_name(const std::string& name) {
  Ring& r = ring();
  std::lock_guard<std::mutex> lock(r.mu);
  r.process_name = name.empty() ? "atlas" : name;
}

void Trace::record_complete(const char* category, const std::string& name,
                            std::uint64_t start_us, std::uint64_t dur_us,
                            const SpanIds& ids) {
  if (!trace_enabled()) return;
  const std::uint32_t tid = this_thread_id();
  Ring& r = ring();
  std::lock_guard<std::mutex> lock(r.mu);
  TraceEvent ev;
  ev.name = name;
  ev.category = category;
  ev.tid = tid;
  ev.start_us = start_us;
  ev.dur_us = dur_us;
  ev.ids = ids;
  if (r.events.size() < r.capacity) {
    r.events.push_back(std::move(ev));
  } else {
    r.events[r.write] = std::move(ev);  // overwrite oldest
  }
  r.write = (r.write + 1) % r.capacity;
  ++r.total;
}

void Trace::record_complete(const char* category, const char* name,
                            std::uint64_t start_us, std::uint64_t dur_us,
                            const SpanIds& ids) {
  if (!trace_enabled()) return;
  record_complete(category, std::string(name), start_us, dur_us, ids);
}

std::size_t Trace::size() {
  Ring& r = ring();
  std::lock_guard<std::mutex> lock(r.mu);
  return r.events.size();
}

std::uint64_t Trace::dropped() {
  Ring& r = ring();
  std::lock_guard<std::mutex> lock(r.mu);
  return r.total > r.events.size() ? r.total - r.events.size() : 0;
}

std::vector<TraceEventView> Trace::snapshot() {
  Ring& r = ring();
  std::lock_guard<std::mutex> lock(r.mu);
  std::vector<TraceEventView> out;
  const std::size_t n = r.events.size();
  out.reserve(n);
  const std::size_t first = n < r.capacity ? 0 : r.write;
  for (std::size_t i = 0; i < n; ++i) {
    const TraceEvent& ev = r.events[(first + i) % n];
    TraceEventView v;
    v.name = ev.name;
    v.category = ev.category;
    v.tid = ev.tid;
    v.start_us = ev.start_us;
    v.dur_us = ev.dur_us;
    v.ids = ev.ids;
    out.push_back(std::move(v));
  }
  return out;
}

std::string Trace::render_chrome_json() {
  Ring& r = ring();
  std::lock_guard<std::mutex> lock(r.mu);
  return render_locked(r);
}

std::string Trace::drain_chrome_json() {
  Ring& r = ring();
  std::lock_guard<std::mutex> lock(r.mu);
  std::string out = render_locked(r);
  r.events.clear();
  r.write = 0;
  r.total = 0;
  return out;
}

bool Trace::flush_file() {
  const std::string path = output_path();
  if (path.empty()) return false;
  const std::string json = render_chrome_json();
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  if (!os) throw std::runtime_error("obs::Trace: cannot open " + path);
  os << json;
  if (!os) throw std::runtime_error("obs::Trace: write failed: " + path);
  return true;
}

std::string merge_chrome_json(const std::vector<std::string>& traces) {
  static const std::string kHead = "{\"traceEvents\":[";
  static const std::string kTail = "],\"displayTimeUnit\":\"ms\"";
  static const std::string kDropped = "\"atlasDroppedEvents\":";
  std::string out = kHead;
  std::uint64_t dropped = 0;
  bool any = false;
  for (const std::string& t : traces) {
    if (t.compare(0, kHead.size(), kHead) != 0) continue;
    const std::size_t tail = t.rfind(kTail);
    if (tail == std::string::npos || tail < kHead.size()) continue;
    const std::size_t body_len = tail - kHead.size();
    if (body_len > 0) {
      if (any) out += ',';
      out.append(t, kHead.size(), body_len);
      any = true;
    }
    const std::size_t dp = t.find(kDropped, tail);
    if (dp != std::string::npos) {
      dropped += std::strtoull(t.c_str() + dp + kDropped.size(), nullptr, 10);
    }
  }
  out += "],\"displayTimeUnit\":\"ms\",\"atlasDroppedEvents\":";
  append_u64(out, dropped);
  out += '}';
  return out;
}

bool init_trace_from_env() {
  if (trace_enabled()) return true;
  const char* path = std::getenv("ATLAS_TRACE");
  if (path == nullptr || *path == '\0') return false;
  Trace::enable();
  Trace::set_output_path(path);
  return true;
}

}  // namespace atlas::obs
