// Cross-process timeline assembly: merging a client dump and a server dump
// onto one time axis with distinct pids, folding spans into per-request
// breakdowns, the single-trace renderer, and the merged-trace writer whose
// output must itself load as a timeline (round trip).
#include "obs/analysis/timeline.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>

#include "../../test_helpers.hpp"

namespace solsched::obs::analysis {
namespace {

std::string tmp_path(const char* name) {
  const std::string dir = ::testing::TempDir() + "/timeline_test";
  std::filesystem::create_directories(dir);
  return dir + "/" + name;
}

void put_file(const std::string& path, const std::string& body) {
  std::ofstream out(path, std::ios::trunc | std::ios::binary);
  out << body;
}

// The two halves of one traced request (id 0xabc), wall-clock µs. The
// client span [1000,1900] wraps the server span [1200,1800]; the stage
// spans partition 500 µs of the server span.
constexpr const char* kClientDump = R"({"traceEvents":[
{"name":"serve.client.request","ph":"X","pid":1,"tid":1,"ts":1000,"dur":900,"args":{"trace":"0xabc"}},
{"name":"serve.request","cat":"flow","ph":"s","pid":1,"tid":1,"ts":1000,"id":"0xabc"},
{"name":"unrelated.span","ph":"X","pid":1,"tid":1,"ts":500,"dur":10}
],"displayTimeUnit":"ms"})";

constexpr const char* kServerDump = R"({"traceEvents":[
{"name":"serve.req","ph":"X","pid":1,"tid":2,"ts":1200,"dur":600,"args":{"trace":"0xabc"}},
{"name":"serve.req.decode","ph":"X","pid":1,"tid":2,"ts":1200,"dur":50,"args":{"trace":"0xabc"}},
{"name":"serve.req.queue_wait","ph":"X","pid":1,"tid":2,"ts":1250,"dur":150,"args":{"trace":"0xabc"}},
{"name":"serve.req.engine.hit","ph":"X","pid":1,"tid":2,"ts":1400,"dur":200,"args":{"trace":"0xabc"}},
{"name":"serve.req.encode","ph":"X","pid":1,"tid":2,"ts":1600,"dur":40,"args":{"trace":"0xabc"}},
{"name":"serve.req.write","ph":"X","pid":1,"tid":2,"ts":1640,"dur":60,"args":{"trace":"0xabc"}},
{"name":"serve.request","cat":"flow","ph":"f","bp":"e","pid":1,"tid":2,"ts":1400,"id":"0xabc"}
],"displayTimeUnit":"ms"})";

TEST(Timeline, MergeAssignsDistinctPidsAndSortsByTime) {
  const std::string client = tmp_path("client.json");
  const std::string server = tmp_path("server.json");
  put_file(client, kClientDump);
  put_file(server, kServerDump);

  const Timeline t = load_timeline({client, server});
  ASSERT_EQ(t.events.size(), 10u);
  // ts-sorted regardless of source file order.
  for (std::size_t i = 1; i < t.events.size(); ++i)
    EXPECT_LE(t.events[i - 1].ts_us, t.events[i].ts_us);
  // Every sink writes pid 1; the merge re-homes by file index.
  for (const TimelineEvent& ev : t.events) {
    EXPECT_EQ(ev.pid, ev.source == client ? 1u : 2u);
    if (ev.name == "serve.client.request") {
      EXPECT_EQ(ev.trace_id, 0xabcu);
    }
    if (ev.name == "unrelated.span") {
      EXPECT_EQ(ev.trace_id, 0u);
    }
  }
}

TEST(Timeline, BreakdownFoldsClientServerAndStages) {
  const std::string client = tmp_path("bd_client.json");
  const std::string server = tmp_path("bd_server.json");
  put_file(client, kClientDump);
  put_file(server, kServerDump);

  const auto breakdowns =
      request_breakdowns(load_timeline({client, server}));
  ASSERT_EQ(breakdowns.size(), 1u);  // The untagged span folds nowhere.
  const RequestBreakdown& b = breakdowns[0];
  EXPECT_EQ(b.trace_id, 0xabcu);
  EXPECT_EQ(b.first_ts_us, 1000u);
  EXPECT_EQ(b.client_latency_us, 900u);
  EXPECT_EQ(b.server_total_us, 600u);
  // decode 50 + queue_wait 150 + engine 200 + encode 40 + write 60.
  EXPECT_EQ(b.stage_sum_us, 500u);
  EXPECT_EQ(b.spans.size(), 7u);
  // The acceptance inequality chain: stages <= server <= client.
  EXPECT_LE(b.stage_sum_us, b.server_total_us);
  EXPECT_LE(b.server_total_us, b.client_latency_us);
}

TEST(Timeline, RenderFiltersBySelectedTraceId) {
  const std::string client = tmp_path("r_client.json");
  const std::string server = tmp_path("r_server.json");
  put_file(client, kClientDump);
  put_file(server, kServerDump);
  const Timeline t = load_timeline({client, server});

  const std::string text = render_timeline(t, 0xabc);
  EXPECT_NE(text.find("trace 0xabc"), std::string::npos);
  EXPECT_NE(text.find("serve.req.queue_wait"), std::string::npos);
  EXPECT_NE(text.find("serve.client.request"), std::string::npos);
  EXPECT_EQ(text.find("unrelated.span"), std::string::npos);

  // An id absent from the dumps renders nothing (the inspect exit-1 path).
  EXPECT_TRUE(render_timeline(t, 0xdead).empty());
}

TEST(Timeline, MergedTraceRoundTripsThroughTheLoader) {
  const std::string client = tmp_path("m_client.json");
  const std::string server = tmp_path("m_server.json");
  const std::string merged = tmp_path("merged.json");
  put_file(client, kClientDump);
  put_file(server, kServerDump);
  const Timeline original = load_timeline({client, server});
  ASSERT_TRUE(write_merged_trace(original, merged));

  const Timeline back = load_timeline({merged});
  ASSERT_EQ(back.events.size(), original.events.size());
  std::size_t flows = 0;
  for (std::size_t i = 0; i < back.events.size(); ++i) {
    EXPECT_EQ(back.events[i].name, original.events[i].name);
    EXPECT_EQ(back.events[i].ph, original.events[i].ph);
    EXPECT_EQ(back.events[i].ts_us, original.events[i].ts_us);
    EXPECT_EQ(back.events[i].dur_us, original.events[i].dur_us);
    EXPECT_EQ(back.events[i].trace_id, original.events[i].trace_id);
    if (back.events[i].ph == 's' || back.events[i].ph == 'f') ++flows;
  }
  EXPECT_EQ(flows, 2u);
  // The reloaded breakdown is unchanged.
  const auto breakdowns = request_breakdowns(back);
  ASSERT_EQ(breakdowns.size(), 1u);
  EXPECT_EQ(breakdowns[0].stage_sum_us, 500u);
}

// A merged write that cannot complete leaves the previous file whole: no
// silently short trace, no stray tmp.
TEST(Timeline, FailedMergedWriteKeepsTheOldFile) {
  const std::string client = tmp_path("f_client.json");
  const std::string server = tmp_path("f_server.json");
  const std::string merged = tmp_path("f_merged.json");
  put_file(client, kClientDump);
  put_file(server, kServerDump);
  put_file(merged, "old merged trace\n");
  const Timeline t = load_timeline({client, server});
  {
    const test::FileSizeLimit limit(64);
    EXPECT_FALSE(write_merged_trace(t, merged));
  }
  std::ifstream in(merged);
  const std::string kept((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  EXPECT_EQ(kept, "old merged trace\n");
  EXPECT_FALSE(std::filesystem::exists(merged + ".tmp"));
}

TEST(Timeline, MissingFileAndMalformedJsonThrow) {
  EXPECT_THROW(load_timeline({tmp_path("absent.json")}), std::runtime_error);
  const std::string bad = tmp_path("bad.json");
  put_file(bad, "{\"notTraceEvents\":[]}");
  EXPECT_THROW(load_timeline({bad}), std::runtime_error);
}

}  // namespace
}  // namespace solsched::obs::analysis
