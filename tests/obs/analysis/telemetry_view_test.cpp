// Reader side of the campaign's telemetry.jsonl stream: the loader's
// torn-tail forgiveness and its census, plus the zero-length files a crash
// leaves beside it.
#include "obs/analysis/telemetry_view.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "obs/analysis/status_view.hpp"

namespace solsched::obs::analysis {
namespace {

const char* kHeader =
    "{\"telemetry\": \"solsched-campaign-telemetry-v1\", "
    "\"spec_digest\": \"00000000deadbeef\"}\n";

// Degenerate files a crash (or a watcher racing the first write) leaves
// behind: zero-length and header-only.
TEST(TelemetryView, ZeroLengthFilesAreRefusedOrEmpty) {
  // A zero-length status.json cannot carry the magic: the reader must
  // refuse it, not render a zeroed dashboard.
  EXPECT_THROW(parse_status(""), std::runtime_error);
  EXPECT_THROW(parse_status("{}"), std::runtime_error);
  // A zero-length telemetry.jsonl is a valid (empty) log: the bus opens
  // the file before its first fsync'd header write.
  const TelemetryLog empty = load_telemetry("");
  EXPECT_TRUE(empty.lines.empty());
  EXPECT_TRUE(empty.spec_digest.empty());
  EXPECT_EQ(empty.dropped_partial, 0u);
}

TEST(TelemetryView, HeaderOnlyTelemetryIsAnEmptyLog) {
  const TelemetryLog log = load_telemetry(kHeader);
  EXPECT_TRUE(log.lines.empty());
  EXPECT_EQ(log.spec_digest, "00000000deadbeef");
  EXPECT_EQ(log.dropped_partial, 0u);
  EXPECT_TRUE(log.census().empty());
}

TEST(TelemetryView, LoadTelemetryParsesLinesAndCensus) {
  const std::string text =
      std::string(kHeader) +
      "{\"seq\": 0, \"ts_ms\": 5, \"type\": \"campaign.start\", "
      "\"detail\": \"8 shards, 0 resumed\"}\n"
      "{\"seq\": 1, \"ts_ms\": 6, \"type\": \"shard.claimed\", \"shard\": 3, "
      "\"workload\": \"ecg\", \"detail\": \"cafe0000cafe0000\"}\n"
      "{\"seq\": 2, \"ts_ms\": 7, \"type\": \"shard.done\", \"shard\": 3, "
      "\"workload\": \"ecg\"}\n";
  const TelemetryLog log = load_telemetry(text);
  EXPECT_EQ(log.spec_digest, "00000000deadbeef");
  EXPECT_EQ(log.dropped_partial, 0u);
  ASSERT_EQ(log.lines.size(), 3u);
  EXPECT_EQ(log.lines[0].type, "campaign.start");
  EXPECT_FALSE(log.lines[0].has_shard);
  EXPECT_TRUE(log.lines[1].has_shard);
  EXPECT_EQ(log.lines[1].shard, 3u);
  EXPECT_EQ(log.lines[1].workload, "ecg");
  EXPECT_EQ(log.lines[1].detail, "cafe0000cafe0000");
  const auto census = log.census();
  EXPECT_EQ(census.at("shard.claimed"), 1u);
  EXPECT_EQ(census.at("shard.done"), 1u);
}

// Only the final line may be torn (appends are sequential and fsync'd);
// mid-file garbage means corruption, not a crash, and must throw.
TEST(TelemetryView, LoadTelemetryForgivesOnlyTornTail) {
  const std::string good =
      std::string(kHeader) +
      "{\"seq\": 0, \"ts_ms\": 5, \"type\": \"campaign.start\"}\n";
  const TelemetryLog torn =
      load_telemetry(good + "{\"seq\": 1, \"type\": \"shard.cl");
  EXPECT_EQ(torn.dropped_partial, 1u);
  EXPECT_EQ(torn.lines.size(), 1u);

  EXPECT_THROW(
      load_telemetry(good + "garbage\n{\"seq\": 1, \"ts_ms\": 6, "
                            "\"type\": \"heartbeat\"}\n"),
      std::runtime_error);
  EXPECT_THROW(load_telemetry(good + "garbage\ngarbage\n"),
               std::runtime_error);
}

TEST(TelemetryView, LoadTelemetryTornHeaderAndBadHeader) {
  // A crash can even cut the header short: everything so far is forgiven.
  const TelemetryLog torn = load_telemetry("{\"telemetry\": \"solsch");
  EXPECT_EQ(torn.dropped_partial, 1u);
  EXPECT_TRUE(torn.lines.empty());
  EXPECT_TRUE(load_telemetry("").lines.empty());
  // A *valid* first line with the wrong magic is not a telemetry stream.
  EXPECT_THROW(load_telemetry("{\"telemetry\": \"other\"}\n"),
               std::runtime_error);
}

}  // namespace
}  // namespace solsched::obs::analysis
