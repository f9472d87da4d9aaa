// Tests for the observability layer (src/obs/): metrics registry,
// span tracer + Chrome trace JSON export, and the structured logger.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/parallel.h"

#include "json_reader.h"

namespace atlas::obs {
namespace {

using test::Json;
using test::JsonParser;

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

TEST(ObsMetricsTest, CounterAndGaugeBasics) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);

  Gauge g;
  g.set(-7);
  EXPECT_EQ(g.value(), -7);
  g.add(10);
  EXPECT_EQ(g.value(), 3);
}

TEST(ObsMetricsTest, RegistryReturnsSameSeriesAndIsExactUnderParallelFor) {
  Registry& reg = Registry::global();
  Counter& c = reg.counter("atlas_test_parallel_incs_total");
  EXPECT_EQ(&c, &reg.counter("atlas_test_parallel_incs_total"));

  const std::uint64_t before = c.value();
  constexpr std::size_t kN = 100000;
  util::parallel_for(kN, 256, [&](std::size_t) {
    // Steady-state pattern: cached pointer, one relaxed fetch_add per hit.
    static Counter* cached =
        &Registry::global().counter("atlas_test_parallel_incs_total");
    cached->inc();
  });
  EXPECT_EQ(c.value(), before + kN);
}

TEST(ObsMetricsTest, KindConflictThrowsLogicError) {
  Registry& reg = Registry::global();
  reg.counter("atlas_test_kind_conflict");
  EXPECT_THROW(reg.gauge("atlas_test_kind_conflict"), std::logic_error);
  EXPECT_THROW(reg.histogram("atlas_test_kind_conflict"), std::logic_error);
}

TEST(ObsMetricsTest, HistogramBucketsAndPercentiles) {
  Histogram h;
  EXPECT_EQ(h.percentile(50), 0u);  // empty

  for (int i = 0; i < 90; ++i) h.record(100);   // bucket [64,128)
  for (int i = 0; i < 10; ++i) h.record(10000);  // bucket [8192,16384)
  EXPECT_EQ(h.count(), 100u);
  EXPECT_EQ(h.sum(), 90u * 100u + 10u * 10000u);
  EXPECT_EQ(h.percentile(50), 128u);
  EXPECT_EQ(h.percentile(90), 128u);
  EXPECT_EQ(h.percentile(91), 16384u);
  EXPECT_EQ(h.percentile(99), 16384u);
  EXPECT_EQ(h.percentile(100), 16384u);
}

TEST(ObsMetricsTest, HistogramSingleSampleReturnsItsBucketForAllP) {
  Histogram h;
  h.record(100);  // bucket [64,128) -> bound 128
  for (double p : {0.001, 1.0, 25.0, 50.0, 75.0, 99.0, 100.0}) {
    EXPECT_EQ(h.percentile(p), 128u) << "p=" << p;
  }
}

TEST(ObsMetricsTest, HistogramOverflowBucketIsExplicit) {
  Histogram h;
  h.record(1);
  h.record(std::uint64_t{1} << 40);  // >= 2^32: overflow, not top bucket
  EXPECT_EQ(h.count(), 2u);
  EXPECT_EQ(h.overflow_count(), 1u);
  EXPECT_EQ(h.percentile(50), 2u);
  EXPECT_EQ(h.percentile(100), Histogram::kOverflowBound);
}

TEST(ObsMetricsTest, HistogramZeroLandsInBucketZero) {
  Histogram h;
  h.record(0);
  h.record(1);
  EXPECT_EQ(h.bucket_count(0), 2u);
  EXPECT_EQ(h.percentile(100), 2u);
}

TEST(ObsMetricsTest, PrometheusRenderShapes) {
  Registry& reg = Registry::global();
  reg.counter("atlas_test_render_total", "endpoint=\"a\"").inc(3);
  reg.counter("atlas_test_render_total", "endpoint=\"b\"").inc(1);
  reg.gauge("atlas_test_render_gauge").set(-5);
  Histogram& h = reg.histogram("atlas_test_render_hist");
  h.record(100);
  h.record(100000);

  const std::string text = reg.render_prometheus();
  EXPECT_NE(text.find("# TYPE atlas_test_render_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("atlas_test_render_total{endpoint=\"a\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("atlas_test_render_total{endpoint=\"b\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE atlas_test_render_gauge gauge"),
            std::string::npos);
  EXPECT_NE(text.find("atlas_test_render_gauge -5"), std::string::npos);
  EXPECT_NE(text.find("# TYPE atlas_test_render_hist histogram"),
            std::string::npos);
  // Cumulative buckets end in +Inf; _count and _sum are present.
  EXPECT_NE(text.find("atlas_test_render_hist_bucket{le=\"+Inf\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("atlas_test_render_hist_count 2"), std::string::npos);
  EXPECT_NE(text.find("atlas_test_render_hist_sum 100100"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Trace
// ---------------------------------------------------------------------------

class ObsTraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Trace::disable();
    Trace::clear();
  }
  void TearDown() override {
    Trace::disable();
    Trace::clear();
    Trace::set_output_path("");
  }
};

TEST_F(ObsTraceTest, DisabledSpansRecordNothing) {
  ASSERT_FALSE(trace_enabled());
  { ObsSpan span("test", "invisible"); }
  EXPECT_EQ(Trace::size(), 0u);
}

TEST_F(ObsTraceTest, SpansProduceValidChromeTraceJson) {
  Trace::enable();
  {
    ObsSpan outer("test", "outer");
    ObsSpan inner("test", std::string("inner_dyn"));
  }
  Trace::record_complete("test", "explicit", 10, 5);
  ASSERT_EQ(Trace::size(), 3u);

  const std::string json_text = Trace::render_chrome_json();
  Json root;
  ASSERT_NO_THROW(root = JsonParser(json_text).parse());
  ASSERT_EQ(root.type, Json::Type::kObject);
  ASSERT_TRUE(root.has("traceEvents"));
  EXPECT_EQ(root.at("displayTimeUnit").str, "ms");
  EXPECT_EQ(root.at("atlasDroppedEvents").num, 0.0);

  // The first event labels the process (real OS pid + name); the span
  // events follow, all under the same pid.
  const std::vector<Json>& events = root.at("traceEvents").arr;
  ASSERT_EQ(events.size(), 4u);
  const Json& meta = events.front();
  EXPECT_EQ(meta.at("ph").str, "M");
  EXPECT_EQ(meta.at("name").str, "process_name");
  EXPECT_GT(meta.at("pid").num, 0.0);
  std::vector<std::string> names;
  for (std::size_t i = 1; i < events.size(); ++i) {
    const Json& e = events[i];
    EXPECT_EQ(e.at("ph").str, "X");
    EXPECT_EQ(e.at("cat").str, "test");
    EXPECT_EQ(e.at("pid").num, meta.at("pid").num);
    EXPECT_GT(e.at("tid").num, 0.0);
    EXPECT_GE(e.at("dur").num, 0.0);
    names.push_back(e.at("name").str);
  }
  // Ring order is completion order: inner closes before outer.
  EXPECT_NE(std::find(names.begin(), names.end(), "outer"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "inner_dyn"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "explicit"), names.end());
}

TEST_F(ObsTraceTest, RingIsBoundedAndCountsDropped) {
  constexpr std::size_t kCap = 8;
  Trace::enable(kCap);
  for (int i = 0; i < 20; ++i) {
    Trace::record_complete("test", "e", static_cast<std::uint64_t>(i), 1);
  }
  EXPECT_EQ(Trace::size(), kCap);
  EXPECT_EQ(Trace::dropped(), 20u - kCap);

  const Json root = JsonParser(Trace::render_chrome_json()).parse();
  // +1: the process_name metadata event precedes the ring contents.
  EXPECT_EQ(root.at("traceEvents").arr.size(), kCap + 1);
  EXPECT_EQ(root.at("atlasDroppedEvents").num, static_cast<double>(20 - kCap));
  // Oldest events were overwritten: the surviving ones are the last kCap.
  EXPECT_EQ(root.at("traceEvents").arr[1].at("ts").num, 12.0);
}

TEST_F(ObsTraceTest, ConcurrentSpansFromParallelForAllLand) {
  Trace::enable();
  constexpr std::size_t kN = 64;
  util::parallel_for(kN, 1, [](std::size_t) {
    ObsSpan span("test", "worker_span");
  });
  // The pool may add its own "pool_batch" span, so count by name.
  Json root;
  ASSERT_NO_THROW(root = JsonParser(Trace::render_chrome_json()).parse());
  std::size_t worker_spans = 0;
  for (const Json& e : root.at("traceEvents").arr) {
    if (e.at("name").str == "worker_span") ++worker_spans;
  }
  EXPECT_EQ(worker_spans, kN);
}

TEST_F(ObsTraceTest, FlushFileReturnsFalseWithoutPath) {
  Trace::enable();
  Trace::set_output_path("");
  EXPECT_FALSE(Trace::flush_file());
}

// ---------------------------------------------------------------------------
// Distributed trace context
// ---------------------------------------------------------------------------

TEST_F(ObsTraceTest, MakeRootContextIsValidUniqueAndParentless) {
  const TraceContext a = make_root_context(/*sampled=*/true);
  const TraceContext b = make_root_context(/*sampled=*/true);
  EXPECT_TRUE(a.valid());
  EXPECT_TRUE(b.valid());
  EXPECT_EQ(a.span_id, 0u);  // root: no enclosing span
  EXPECT_TRUE(a.trace_hi != b.trace_hi || a.trace_lo != b.trace_lo);
  EXPECT_FALSE(TraceContext{}.valid());
  EXPECT_FALSE(current_trace_context().valid());
}

TEST_F(ObsTraceTest, ContextScopeInstallsAndRestoresAmbient) {
  const TraceContext root = make_root_context(/*sampled=*/true);
  {
    TraceContextScope scope(root);
    const TraceContext seen = current_trace_context();
    EXPECT_EQ(seen.trace_hi, root.trace_hi);
    EXPECT_EQ(seen.trace_lo, root.trace_lo);
    EXPECT_EQ(seen.span_id, 0u);
    EXPECT_TRUE(seen.sampled);
  }
  EXPECT_FALSE(current_trace_context().valid());
}

TEST_F(ObsTraceTest, SpansUnderContextChainParentIds) {
  Trace::enable();
  const TraceContext root = make_root_context(/*sampled=*/true);
  std::uint64_t outer_id = 0;
  std::uint64_t inner_id = 0;
  {
    TraceContextScope scope(root);
    ObsSpan outer("test", "ctx_outer");
    outer_id = outer.span_id();
    EXPECT_NE(outer_id, 0u);
    // The outer span is now the ambient parent for nested work...
    EXPECT_EQ(current_trace_context().span_id, outer_id);
    {
      ObsSpan inner("test", "ctx_inner");
      inner_id = inner.span_id();
    }
    // ...and the chain unwinds as spans close.
    EXPECT_EQ(current_trace_context().span_id, outer_id);
  }
  const std::vector<TraceEventView> events = Trace::snapshot();
  ASSERT_EQ(events.size(), 2u);  // completion order: inner first
  const TraceEventView& inner = events[0];
  const TraceEventView& outer = events[1];
  EXPECT_EQ(inner.name, "ctx_inner");
  EXPECT_EQ(outer.name, "ctx_outer");
  EXPECT_EQ(inner.ids.trace_hi, root.trace_hi);
  EXPECT_EQ(inner.ids.trace_lo, root.trace_lo);
  EXPECT_EQ(outer.ids.trace_hi, root.trace_hi);
  EXPECT_EQ(outer.ids.parent_span_id, 0u);  // child of the root context
  EXPECT_EQ(inner.ids.parent_span_id, outer_id);
  EXPECT_EQ(inner.ids.span_id, inner_id);
  EXPECT_NE(inner_id, outer_id);
}

TEST_F(ObsTraceTest, SpanWithoutContextRecordsZeroIds) {
  Trace::enable();
  { ObsSpan span("test", "no_ctx"); }
  const std::vector<TraceEventView> events = Trace::snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].ids.trace_hi | events[0].ids.trace_lo, 0u);
  EXPECT_EQ(events[0].ids.span_id, 0u);
}

TEST_F(ObsTraceTest, UnsampledContextChainsIdsWithoutRecording) {
  Trace::enable();
  const TraceContext root = make_root_context(/*sampled=*/false);
  TraceContextScope scope(root);
  TraceContext forwarded;
  {
    ObsSpan span("test", "unsampled");
    // The id chain must stay correct for downstream processes even though
    // nothing lands in this process's ring.
    forwarded = span.context();
  }
  EXPECT_EQ(Trace::size(), 0u);
  EXPECT_TRUE(forwarded.valid());
  EXPECT_NE(forwarded.span_id, 0u);
  EXPECT_FALSE(forwarded.sampled);
  EXPECT_EQ(forwarded.trace_hi, root.trace_hi);
}

TEST_F(ObsTraceTest, ContextChainsEvenWithTracingDisabledLocally) {
  ASSERT_FALSE(trace_enabled());
  const TraceContext root = make_root_context(/*sampled=*/true);
  TraceContextScope scope(root);
  ObsSpan outer("test", "relay_outer");
  ObsSpan inner("test", "relay_inner");
  // A relay process with tracing off still allocates ids and parents
  // correctly (this is what keeps router-less traces linkable), it just
  // records nothing.
  EXPECT_EQ(Trace::size(), 0u);
  EXPECT_NE(outer.span_id(), 0u);
  EXPECT_EQ(inner.context().span_id, current_trace_context().span_id);
  EXPECT_EQ(current_trace_context().trace_hi, root.trace_hi);
}

TEST_F(ObsTraceTest, JsonCarriesProcessNameAndSpanIdArgs) {
  Trace::set_process_name("unit_proc");
  Trace::enable();
  const TraceContext root = make_root_context(/*sampled=*/true);
  {
    TraceContextScope scope(root);
    ObsSpan span("test", "args_span");
  }
  const Json doc = JsonParser(Trace::render_chrome_json()).parse();
  const std::vector<Json>& events = doc.at("traceEvents").arr;
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].at("args").at("name").str, "unit_proc");
  const Json& args = events[1].at("args");
  EXPECT_EQ(args.at("trace_id").str.size(), 32u);  // 128-bit hex
  EXPECT_EQ(args.at("span_id").str.size(), 16u);
  EXPECT_EQ(args.at("parent_span_id").str.size(), 16u);
  EXPECT_NE(args.at("span_id").str, std::string(16, '0'));
  Trace::set_process_name("");
}

TEST_F(ObsTraceTest, MergeChromeJsonSplicesDocumentsAndSumsDropped) {
  constexpr std::size_t kCap = 4;
  Trace::enable(kCap);
  for (int i = 0; i < 6; ++i) {
    Trace::record_complete("test", "first_doc", static_cast<std::uint64_t>(i),
                           1);
  }
  const std::string doc1 = Trace::drain_chrome_json();  // 4 events, 2 dropped
  EXPECT_EQ(Trace::size(), 0u);  // drain has clear semantics
  Trace::record_complete("test", "second_doc", 100, 1);
  const std::string doc2 = Trace::drain_chrome_json();

  const std::string merged =
      merge_chrome_json({doc1, "not a trace document", doc2});
  Json root;
  ASSERT_NO_THROW(root = JsonParser(merged).parse());
  std::size_t first = 0;
  std::size_t second = 0;
  std::size_t meta = 0;
  for (const Json& e : root.at("traceEvents").arr) {
    if (e.at("name").str == "first_doc") ++first;
    if (e.at("name").str == "second_doc") ++second;
    if (e.at("name").str == "process_name") ++meta;
  }
  EXPECT_EQ(first, kCap);
  EXPECT_EQ(second, 1u);
  EXPECT_EQ(meta, 2u);  // one per source document
  EXPECT_EQ(root.at("atlasDroppedEvents").num, 2.0);
}

// ---------------------------------------------------------------------------
// Logger
// ---------------------------------------------------------------------------

class ObsLogTest : public ::testing::Test {
 protected:
  void SetUp() override {
    lines_.clear();
    set_log_sink([this](const std::string& line) { lines_.push_back(line); });
    set_log_level(LogLevel::kInfo);
  }
  void TearDown() override {
    set_log_sink(nullptr);
    set_log_level(LogLevel::kInfo);
  }
  std::vector<std::string> lines_;
};

TEST_F(ObsLogTest, LevelFilteringSuppressesBelowMinimum) {
  LogLine(LogLevel::kDebug, "test").kv("event", "hidden");
  ASSERT_TRUE(lines_.empty());
  LogLine(LogLevel::kInfo, "test").kv("event", "shown");
  ASSERT_EQ(lines_.size(), 1u);

  set_log_level(LogLevel::kError);
  LogLine(LogLevel::kWarn, "test").kv("event", "hidden2");
  LogLine(LogLevel::kError, "test").kv("event", "shown2");
  ASSERT_EQ(lines_.size(), 2u);

  set_log_level(LogLevel::kOff);
  LogLine(LogLevel::kError, "test").kv("event", "hidden3");
  EXPECT_EQ(lines_.size(), 2u);
}

TEST_F(ObsLogTest, LineFormatAndValueTypes) {
  LogLine(LogLevel::kInfo, "mymod")
      .kv("str", "plain")
      .kv("quoted", "has spaces")
      .kv("n", 42)
      .kv("neg", -3)
      .kv("f", 1.5)
      .kv("flag", true);
  ASSERT_EQ(lines_.size(), 1u);
  const std::string& line = lines_[0];
  EXPECT_EQ(line.compare(0, 3, "ts="), 0);
  EXPECT_NE(line.find(" level=info "), std::string::npos);
  EXPECT_NE(line.find(" mod=mymod "), std::string::npos);
  EXPECT_NE(line.find(" str=plain"), std::string::npos);
  EXPECT_NE(line.find(" quoted=\"has spaces\""), std::string::npos);
  EXPECT_NE(line.find(" n=42"), std::string::npos);
  EXPECT_NE(line.find(" neg=-3"), std::string::npos);
  EXPECT_NE(line.find(" flag=true"), std::string::npos);
  EXPECT_EQ(line.back(), '\n');
}

TEST_F(ObsLogTest, ParseLogLevelNames) {
  EXPECT_EQ(parse_log_level("debug"), LogLevel::kDebug);
  EXPECT_EQ(parse_log_level("info"), LogLevel::kInfo);
  EXPECT_EQ(parse_log_level("warn"), LogLevel::kWarn);
  EXPECT_EQ(parse_log_level("error"), LogLevel::kError);
  EXPECT_EQ(parse_log_level("off"), LogLevel::kOff);
  EXPECT_EQ(parse_log_level("bogus"), LogLevel::kInfo);
}

TEST_F(ObsLogTest, LogEnabledMatchesMinimumLevel) {
  set_log_level(LogLevel::kWarn);
  EXPECT_FALSE(log_enabled(LogLevel::kDebug));
  EXPECT_FALSE(log_enabled(LogLevel::kInfo));
  EXPECT_TRUE(log_enabled(LogLevel::kWarn));
  EXPECT_TRUE(log_enabled(LogLevel::kError));
}

}  // namespace
}  // namespace atlas::obs
