// TelemetryBus unit tests: event stream shape, status snapshots, rolling
// counters, crash-torn tail heal, and the straggler watchdog.
#include "obs/telemetry.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "obs/analysis/status_view.hpp"
#include "obs/analysis/telemetry_view.hpp"
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
  const analysis::TelemetryLog log =
      analysis::load_telemetry(slurp(dir + "/telemetry.jsonl"));
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
  for (std::size_t i = 0; i < log.lines.size(); ++i)
    EXPECT_EQ(log.lines[i].seq, i);
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
      analysis::load_telemetry(slurp(dir + "/telemetry.jsonl")).census();
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
  const analysis::TelemetryLog log =
      analysis::load_telemetry(slurp(dir + "/telemetry.jsonl"));
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

  const analysis::TelemetryLog log =
      analysis::load_telemetry(slurp(dir + "/telemetry.jsonl"));
  const auto census = log.census();
  EXPECT_EQ(census.at("campaign.stall"), 1u);
  EXPECT_EQ(census.at("heartbeat"), 3u);
  bool digest_seen = false;
  for (const auto& line : log.lines)
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

}  // namespace
}  // namespace solsched::obs
