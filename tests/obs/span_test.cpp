// Scoped spans: registry aggregation, on/off behaviour, Chrome trace sink.
#include "obs/span.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "../test_helpers.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "util/thread_pool.hpp"

namespace solsched::obs {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::stringstream content;
  content << in.rdbuf();
  return content.str();
}

class SpanTest : public ::testing::Test {
 protected:
  void SetUp() override {
    set_enabled(true);
    set_trace_events_enabled(false);
    clear_trace_events();
    MetricsRegistry::global().reset();
  }
  void TearDown() override {
    set_trace_events_enabled(false);
    clear_trace_events();
    set_enabled(false);
  }
};

TEST_F(SpanTest, RecordsCallsAndDuration) {
  for (int i = 0; i < 3; ++i) {
    OBS_SPAN("test.span.basic");
  }
  const MetricsSnapshot snap = MetricsRegistry::global().snapshot();
  EXPECT_EQ(snap.counter_or("span.test.span.basic.calls"), 3u);
  // total_us exists (possibly 0 on a fast machine).
  EXPECT_EQ(snap.counter_or("span.test.span.basic.total_us", 999999u) ==
                999999u,
            false);
}

TEST_F(SpanTest, DisabledSpanRecordsNothing) {
  set_enabled(false);
  {
    OBS_SPAN("test.span.disabled");
  }
  set_enabled(true);
  const MetricsSnapshot snap = MetricsRegistry::global().snapshot();
  EXPECT_EQ(snap.counter_or("span.test.span.disabled.calls"), 0u);
}

TEST_F(SpanTest, EnabledStateLatchedAtConstruction) {
  // Disabling mid-span must not crash or half-record: activity is decided
  // in the constructor.
  {
    OBS_SPAN("test.span.latched");
    set_enabled(false);
  }
  set_enabled(true);
  const MetricsSnapshot snap = MetricsRegistry::global().snapshot();
  EXPECT_EQ(snap.counter_or("span.test.span.latched.calls"), 1u);
}

TEST_F(SpanTest, DynamicNameSpan) {
  const std::string row = "row.optimal";
  {
    ScopedSpan span("test.span." + row);
  }
  const MetricsSnapshot snap = MetricsRegistry::global().snapshot();
  EXPECT_EQ(snap.counter_or("span.test.span.row.optimal.calls"), 1u);
}

TEST_F(SpanTest, TraceSinkCapturesSpans) {
  set_trace_events_enabled(true);
  EXPECT_EQ(trace_event_count(), 0u);
  {
    OBS_SPAN("test.span.traced");
  }
  {
    ScopedSpan span(std::string("test.span.traced_dynamic"));
  }
  EXPECT_EQ(trace_event_count(), 2u);
  EXPECT_EQ(dropped_trace_event_count(), 0u);
  clear_trace_events();
  EXPECT_EQ(trace_event_count(), 0u);
}

TEST_F(SpanTest, SinkDisarmedByDefault) {
  {
    OBS_SPAN("test.span.untraced");
  }
  EXPECT_EQ(trace_event_count(), 0u);
}

TEST_F(SpanTest, WriteChromeTraceJson) {
  set_trace_events_enabled(true);
  {
    OBS_SPAN("test.span.chrome");
  }
  const std::string path =
      ::testing::TempDir() + "span_test.trace.json";
  ASSERT_TRUE(write_chrome_trace(path));
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream content;
  content << in.rdbuf();
  const std::string json = content.str();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"test.span.chrome\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  std::remove(path.c_str());
}

// The emitted file is one valid JSON document with the trace_event shape —
// checked with the analysis parser, not substring probes.
TEST_F(SpanTest, ChromeTraceIsValidJson) {
  set_trace_events_enabled(true);
  {
    OBS_SPAN("test.span.valid_json");
  }
  const std::string path =
      ::testing::TempDir() + "span_test.valid.trace.json";
  ASSERT_TRUE(write_chrome_trace(path));
  const JsonValue doc = parse_json(slurp(path));
  std::remove(path.c_str());

  ASSERT_TRUE(doc.is_object());
  EXPECT_EQ(doc.string_or("displayTimeUnit"), "ms");
  const JsonValue* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  ASSERT_EQ(events->array.size(), 1u);
  const JsonValue& ev = events->array[0];
  EXPECT_EQ(ev.string_or("name"), "test.span.valid_json");
  EXPECT_EQ(ev.string_or("ph"), "X");
  EXPECT_DOUBLE_EQ(ev.number_or("pid"), 1.0);
  EXPECT_NE(ev.find("ts"), nullptr);
  EXPECT_NE(ev.find("dur"), nullptr);
}

// Span labels containing JSON metacharacters must not corrupt the file:
// the writer escapes them and a strict parser decodes the original name.
TEST_F(SpanTest, ChromeTraceEscapesSpanNames) {
  set_trace_events_enabled(true);
  const std::string nasty = "row \"quoted\" back\\slash\nnewline";
  {
    ScopedSpan span(nasty);
  }
  const std::string path =
      ::testing::TempDir() + "span_test.escape.trace.json";
  ASSERT_TRUE(write_chrome_trace(path));
  const JsonValue doc = parse_json(slurp(path));
  std::remove(path.c_str());

  const JsonValue* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->array.size(), 1u);
  EXPECT_EQ(events->array[0].string_or("name"), nasty);
}

// A trace write that cannot complete (here: past RLIMIT_FSIZE) returns
// false and leaves an existing file with its old bytes, never a short one.
TEST_F(SpanTest, FailedTraceWriteKeepsTheOldFile) {
  set_trace_events_enabled(true);
  for (int i = 0; i < 32; ++i) {
    ScopedSpan span("test.span.fsize." + std::to_string(i));
  }
  const std::string path =
      ::testing::TempDir() + "span_test.fsize.trace.json";
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << "old trace\n";
  }
  {
    const test::FileSizeLimit limit(256);
    EXPECT_FALSE(write_chrome_trace(path));
  }
  EXPECT_EQ(slurp(path), "old trace\n");
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  std::remove(path.c_str());
}

// Concurrency contract of the trace sink: the N-thread trace parses as one
// valid JSON document and carries exactly the same span multiset (name ->
// count) as the 1-thread run — interleaving may reorder events and spread
// them over tids, but never lose, duplicate, or corrupt one.
TEST_F(SpanTest, ChromeTraceConcurrentSpansSameMultiset) {
  const auto run_and_census = [&](std::size_t threads) {
    util::ThreadPool::set_global_threads(threads);
    clear_trace_events();
    set_trace_events_enabled(true);
    util::parallel_for(64, [](std::size_t i) {
      ScopedSpan outer("test.span.mt." + std::to_string(i % 4));
      OBS_SPAN("test.span.mt.inner");
    });
    set_trace_events_enabled(false);
    const std::string path = ::testing::TempDir() + "span_test.mt." +
                             std::to_string(threads) + ".trace.json";
    EXPECT_TRUE(write_chrome_trace(path));
    const JsonValue doc = parse_json(slurp(path));
    std::remove(path.c_str());
    std::map<std::string, std::size_t> census;
    const JsonValue* events = doc.find("traceEvents");
    EXPECT_NE(events, nullptr);
    if (events != nullptr)
      for (const JsonValue& ev : events->array)
        ++census[ev.string_or("name")];
    return census;
  };

  const auto serial = run_and_census(1);
  const auto parallel = run_and_census(4);
  util::ThreadPool::set_global_threads(util::ThreadPool::thread_count_from_env());

  // 64 outer spans over 4 names + 64 inner spans: 128 events, both runs.
  EXPECT_EQ(serial.at("test.span.mt.inner"), 64u);
  for (std::size_t k = 0; k < 4; ++k)
    EXPECT_EQ(serial.at("test.span.mt." + std::to_string(k)), 16u);
  EXPECT_EQ(parallel, serial);
}

TEST_F(SpanTest, NowUsMonotonic) {
  const std::uint64_t a = now_us();
  const std::uint64_t b = now_us();
  EXPECT_LE(a, b);
}

}  // namespace
}  // namespace solsched::obs
