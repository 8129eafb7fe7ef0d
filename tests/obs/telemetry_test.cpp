// TelemetryBus unit tests: event stream shape, status snapshots, rolling
// counters, crash-torn tail heal, and the straggler watchdog; then the
// reader beside it, load_telemetry: its torn-tail forgiveness, its census
// and the zero-length files a crash leaves behind.
#include "obs/telemetry.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "obs/analysis/status_view.hpp"
#include "obs/metrics.hpp"

namespace solsched::obs {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream content;
  content << in.rdbuf();
  return content.str();
}

analysis::CampaignStatus campaign_status(const std::string& dir) {
  return std::get<analysis::CampaignStatus>(
      analysis::parse_status(slurp(dir + "/status.json")));
}

std::string fresh_dir(const char* name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

TelemetryBus::Options options_for(const std::string& dir,
                                  std::uint64_t heartbeat_ms = 0) {
  TelemetryBus::Options opt;
  opt.dir = dir;
  opt.spec_digest = "00000000deadbeef";
  opt.heartbeat_ms = heartbeat_ms;  // 0: no watchdog thread; tick() drives.
  opt.stall_ms = 50;
  opt.threads = 2;
  return opt;
}

class TelemetryBusTest : public ::testing::Test {
 protected:
  void SetUp() override {
    was_enabled_ = enabled();
    set_enabled(true);
    MetricsRegistry::global().reset();
  }
  void TearDown() override { set_enabled(was_enabled_); }
  bool was_enabled_ = false;
};

TEST_F(TelemetryBusTest, PublishesLifecycleEventsAndCounters) {
  const std::string dir = fresh_dir("telem_lifecycle");
  {
    TelemetryBus bus(options_for(dir));
    bus.campaign_start(4, {{"ecg", 4}}, {{"ecg", 1}});
    bus.train_start("ecg");
    bus.shard_claimed(1, "ecg", "cafe0000cafe0000");
    bus.sim_start(1);
    bus.shard_done(1, true);
    bus.shard_claimed(2, "ecg", "cafe0000cafe0000");
    bus.shard_failed(2, "boom");
    bus.campaign_finish(false);

    const TelemetryBus::Snapshot snap = bus.snapshot();
    EXPECT_EQ(snap.state, "stopped");
    EXPECT_EQ(snap.total, 4u);
    EXPECT_EQ(snap.resumed, 1u);
    EXPECT_EQ(snap.executed, 1u);
    EXPECT_EQ(snap.done, 2u);
    EXPECT_EQ(snap.failed, 1u);
    EXPECT_EQ(snap.in_flight, 0u);
    EXPECT_EQ(snap.artifact_hits, 1u);
    EXPECT_EQ(snap.trainings, 1u);
  }
  const std::string text = slurp(dir + "/telemetry.jsonl");
  // The envelope's exact bytes: kind, magic and the spec digest.
  EXPECT_EQ(text.substr(0, text.find('\n')),
            "{\"telemetry\": \"solsched-campaign-telemetry-v1\", "
            "\"spec_digest\": \"00000000deadbeef\"}");
  const TelemetryLog log = load_telemetry(text);
  EXPECT_EQ(log.spec_digest, "00000000deadbeef");
  EXPECT_EQ(log.dropped_partial, 0u);
  const auto census = log.census();
  EXPECT_EQ(census.at("campaign.start"), 1u);
  EXPECT_EQ(census.at("train.start"), 1u);
  EXPECT_EQ(census.at("shard.claimed"), 2u);
  EXPECT_EQ(census.at("sim.start"), 1u);
  EXPECT_EQ(census.at("shard.done"), 1u);
  EXPECT_EQ(census.at("shard.failed"), 1u);
  EXPECT_EQ(census.at("campaign.stop"), 1u);
  // Sequence numbers are gap-free in publish order.
  for (std::size_t i = 0; i < log.events.size(); ++i)
    EXPECT_EQ(log.events[i].seq, i);
}

TEST_F(TelemetryBusTest, StatusJsonTracksProgressAndState) {
  const std::string dir = fresh_dir("telem_status");
  TelemetryBus bus(options_for(dir));
  bus.campaign_start(8, {{"ecg", 4}, {"wam", 4}}, {{"ecg", 2}});
  bus.shard_claimed(5, "wam", "d1d1d1d1d1d1d1d1");
  bus.write_status();

  analysis::CampaignStatus status = campaign_status(dir);
  EXPECT_EQ(status.state, "running");
  EXPECT_EQ(status.spec_digest, "00000000deadbeef");
  EXPECT_EQ(status.total, 8u);
  EXPECT_EQ(status.done, 2u);
  EXPECT_EQ(status.resumed, 2u);
  EXPECT_EQ(status.in_flight, 1u);
  EXPECT_EQ(status.threads, 2u);
  ASSERT_EQ(status.workloads.size(), 2u);
  EXPECT_EQ(status.workloads[0].workload, "ecg");
  EXPECT_EQ(status.workloads[0].done, 2u);
  EXPECT_EQ(status.workloads[1].workload, "wam");
  EXPECT_EQ(status.workloads[1].total, 4u);

  bus.shard_done(5, false);
  bus.campaign_finish(false);
  status = campaign_status(dir);
  EXPECT_EQ(status.state, "stopped");
  EXPECT_EQ(status.done, 3u);
  EXPECT_EQ(analysis::status_exit_code(status), 3);
}

TEST_F(TelemetryBusTest, DestructionWithoutFinishRecordsFailed) {
  const std::string dir = fresh_dir("telem_unwound");
  {
    TelemetryBus bus(options_for(dir));
    bus.campaign_start(2, {{"ecg", 2}}, {});
    // No campaign_finish: the run unwound through an exception.
  }
  const analysis::CampaignStatus status = campaign_status(dir);
  EXPECT_EQ(status.state, "failed");
  EXPECT_EQ(analysis::status_exit_code(status), 1);
  const auto census =
      load_telemetry(slurp(dir + "/telemetry.jsonl")).census();
  EXPECT_EQ(census.at("campaign.failed"), 1u);
}

TEST_F(TelemetryBusTest, ReopenHealsCrashTornTail) {
  const std::string dir = fresh_dir("telem_torn");
  {
    TelemetryBus bus(options_for(dir));
    bus.campaign_start(2, {{"ecg", 2}}, {});
    bus.campaign_finish(true);
  }
  // Simulate a kill mid-append: a partial line with no newline.
  std::ofstream(dir + "/telemetry.jsonl", std::ios::app)
      << "{\"seq\": 99, \"type\": \"shard.cl";
  {
    TelemetryBus bus(options_for(dir));  // Heals, then appends cleanly.
    bus.campaign_start(2, {{"ecg", 2}}, {{"ecg", 2}});
    bus.campaign_finish(true);
  }
  const TelemetryLog log = load_telemetry(slurp(dir + "/telemetry.jsonl"));
  EXPECT_EQ(log.dropped_partial, 0u);  // The torn tail was truncated away.
  EXPECT_EQ(log.census().at("campaign.start"), 2u);
  EXPECT_EQ(log.census().at("campaign.finish"), 2u);
}

// The watchdog drill: a shard that stops producing events past the stall
// window is flagged exactly once, with a campaign.stall event, the
// campaign.stall.flagged metric, and the node digest in the detail.
TEST_F(TelemetryBusTest, WatchdogFlagsStalledShard) {
  const std::string dir = fresh_dir("telem_stall");
  TelemetryBus::Options opt = options_for(dir);
  opt.stall_ms = 0;  // Any quiet interval counts as stalled.
  TelemetryBus bus(opt);
  bus.campaign_start(2, {{"ecg", 2}}, {});
  bus.shard_claimed(0, "ecg", "feedfacefeedface");
  bus.tick();  // Flags shard 0.
  bus.tick();  // Must not double-flag.
  EXPECT_EQ(bus.snapshot().stalled, 1u);
  EXPECT_EQ(bus.snapshot().heartbeats, 2u);

  bus.shard_done(0, false);
  bus.tick();  // Done shards are no longer in flight: still 1.
  EXPECT_EQ(bus.snapshot().stalled, 1u);
  bus.campaign_finish(false);

  const TelemetryLog log = load_telemetry(slurp(dir + "/telemetry.jsonl"));
  const auto census = log.census();
  EXPECT_EQ(census.at("campaign.stall"), 1u);
  EXPECT_EQ(census.at("heartbeat"), 3u);
  bool digest_seen = false;
  for (const auto& line : log.events)
    if (line.type == "campaign.stall") {
      EXPECT_EQ(line.shard, 0u);
      digest_seen = line.detail.find("feedfacefeedface") != std::string::npos;
    }
  EXPECT_TRUE(digest_seen);
  EXPECT_EQ(
      MetricsRegistry::global().snapshot().counter_or("campaign.stall.flagged"),
      1u);

  const analysis::CampaignStatus status = campaign_status(dir);
  EXPECT_EQ(status.stalled, 1u);
}

// A live watchdog thread heartbeats on its own; the bus shuts it down
// cleanly in the destructor (exercised under TSan by tier1.sh).
TEST_F(TelemetryBusTest, WatchdogThreadHeartbeats) {
  const std::string dir = fresh_dir("telem_thread");
  TelemetryBus::Options opt = options_for(dir, /*heartbeat_ms=*/5);
  opt.stall_ms = 60000;
  TelemetryBus bus(opt);
  bus.campaign_start(1, {{"ecg", 1}}, {});
  while (bus.snapshot().heartbeats < 3)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  bus.campaign_finish(true);
  EXPECT_GE(bus.snapshot().heartbeats, 3u);
}

TEST_F(TelemetryBusTest, EventJsonOmitsEmptyFields) {
  TelemetryEvent ev;
  ev.seq = 7;
  ev.wall_ms = 123;
  ev.type = "heartbeat";
  EXPECT_EQ(ev.to_json(),
            "{\"seq\": 7, \"ts_ms\": 123, \"type\": \"heartbeat\"}");
  ev.shard = 3;
  ev.workload = "ecg";
  ev.detail = "a \"quoted\" detail";
  EXPECT_EQ(ev.to_json(),
            "{\"seq\": 7, \"ts_ms\": 123, \"type\": \"heartbeat\", "
            "\"shard\": 3, \"workload\": \"ecg\", "
            "\"detail\": \"a \\\"quoted\\\" detail\"}");
}

// ---- the reader: load_telemetry ------------------------------------------

const char* kTelemetryHeader =
    "{\"telemetry\": \"solsched-campaign-telemetry-v1\", "
    "\"spec_digest\": \"00000000deadbeef\"}\n";

// Degenerate files a crash (or a watcher racing the first write) leaves
// behind: zero-length and header-only.
TEST(TelemetryView, ZeroLengthFilesAreRefusedOrEmpty) {
  // A zero-length status.json cannot carry the magic: the reader must
  // refuse it, not render a zeroed dashboard.
  EXPECT_THROW(analysis::parse_status(""), std::runtime_error);
  EXPECT_THROW(analysis::parse_status("{}"), std::runtime_error);
  // A zero-length telemetry.jsonl is a valid (empty) log: the bus opens
  // the file before its first fsync'd header write.
  const TelemetryLog empty = load_telemetry("");
  EXPECT_TRUE(empty.events.empty());
  EXPECT_TRUE(empty.spec_digest.empty());
  EXPECT_EQ(empty.dropped_partial, 0u);
}

TEST(TelemetryView, HeaderOnlyTelemetryIsAnEmptyLog) {
  const TelemetryLog log = load_telemetry(kTelemetryHeader);
  EXPECT_TRUE(log.events.empty());
  EXPECT_EQ(log.spec_digest, "00000000deadbeef");
  EXPECT_EQ(log.dropped_partial, 0u);
  EXPECT_TRUE(log.census().empty());
}

TEST(TelemetryView, LoadTelemetryParsesLinesAndCensus) {
  const std::string text =
      std::string(kTelemetryHeader) +
      "{\"seq\": 0, \"ts_ms\": 5, \"type\": \"campaign.start\", "
      "\"detail\": \"8 shards, 0 resumed\"}\n"
      "{\"seq\": 1, \"ts_ms\": 6, \"type\": \"shard.claimed\", \"shard\": 3, "
      "\"workload\": \"ecg\", \"detail\": \"cafe0000cafe0000\"}\n"
      "{\"seq\": 2, \"ts_ms\": 7, \"type\": \"shard.done\", \"shard\": 3, "
      "\"workload\": \"ecg\"}\n";
  const TelemetryLog log = load_telemetry(text);
  EXPECT_EQ(log.spec_digest, "00000000deadbeef");
  EXPECT_EQ(log.dropped_partial, 0u);
  ASSERT_EQ(log.events.size(), 3u);
  EXPECT_EQ(log.events[0].type, "campaign.start");
  EXPECT_EQ(log.events[0].wall_ms, 5u);
  EXPECT_EQ(log.events[0].shard, kTelemetryNoShard);
  EXPECT_EQ(log.events[1].shard, 3u);
  EXPECT_EQ(log.events[1].workload, "ecg");
  EXPECT_EQ(log.events[1].detail, "cafe0000cafe0000");
  const auto census = log.census();
  EXPECT_EQ(census.at("shard.claimed"), 1u);
  EXPECT_EQ(census.at("shard.done"), 1u);
}

// Only the final line may be torn (appends are sequential and fsync'd);
// mid-file garbage means corruption, not a crash, and must throw.
TEST(TelemetryView, LoadTelemetryForgivesOnlyTornTail) {
  const std::string good =
      std::string(kTelemetryHeader) +
      "{\"seq\": 0, \"ts_ms\": 5, \"type\": \"campaign.start\"}\n";
  const TelemetryLog torn =
      load_telemetry(good + "{\"seq\": 1, \"type\": \"shard.cl");
  EXPECT_EQ(torn.dropped_partial, 1u);
  EXPECT_EQ(torn.events.size(), 1u);

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
  EXPECT_TRUE(torn.events.empty());
  EXPECT_TRUE(load_telemetry("").events.empty());
  // A *valid* first line with the wrong magic is not a telemetry stream.
  try {
    load_telemetry("{\"telemetry\": \"other\"}\n");
    ADD_FAILURE() << "a foreign header loaded";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "missing or unknown header (expected "
                  "\"solsched-campaign-telemetry-v1\")"),
              std::string::npos)
        << e.what();
  }
}

// Integers are read from their digits: a full-width shard id survives, and
// a sign, a fraction, an exponent or 2^64 is an error naming the line, not
// a wrapped or truncated value.
TEST(TelemetryView, IntegersAreExactAndBadOnesNameTheLine) {
  TelemetryEvent wide;
  wide.seq = 1;
  wide.wall_ms = 18008753236730021613ULL;
  wide.type = "shard.done";
  wide.shard = kTelemetryNoShard - 1;
  const TelemetryLog log =
      load_telemetry(kTelemetryHeader + wide.to_json() + "\n");
  ASSERT_EQ(log.events.size(), 1u);
  EXPECT_EQ(log.events[0].wall_ms, wide.wall_ms);
  EXPECT_EQ(log.events[0].shard, wide.shard);

  for (const char* bad : {"\"shard\": -1", "\"shard\": 1e300",
                          "\"shard\": 2.5", "\"shard\": 18446744073709551616",
                          "\"shard\": \"3\""}) {
    SCOPED_TRACE(bad);
    const std::string text =
        std::string(kTelemetryHeader) +
        "{\"seq\": 0, \"ts_ms\": 5, \"type\": \"shard.done\", " + bad +
        "}\n";
    try {
      load_telemetry(text);
      ADD_FAILURE() << "a bad shard loaded";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(
                    "line 2: \"shard\" is not an unsigned integer"),
                std::string::npos)
          << e.what();
    }
  }
}

}  // namespace
}  // namespace solsched::obs
