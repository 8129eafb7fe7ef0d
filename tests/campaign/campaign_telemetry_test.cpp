// Campaign-runner telemetry integration: files appear only under
// SOLSCHED_OBS, kill/resume keeps done/total correct at every checkpoint,
// the watchdog drill flags an artificially hung shard, and the journal
// bytes are independent of the telemetry layer.
#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <thread>

#include "campaign/report.hpp"
#include "campaign/runner.hpp"
#include "obs/analysis/status_view.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry.hpp"
#include "util/thread_pool.hpp"

namespace solsched::campaign {
namespace {

const char* kSharedKnobs =
    "fault=blackout=2;schedulers=inter,proposed;periods=12;slots=10;days=1;"
    "train_days=1;n_caps=2;dp_buckets=6;pretrain_epochs=2;finetune_epochs=10";

CampaignSpec small_spec() {
  return CampaignSpec::parse(
      "workloads=ecg;seeds=1..4;intensities=0,1;" + std::string(kSharedKnobs));
}

// 2 workloads x 16 seeds x 2 intensities = 64 scenarios (the acceptance
// grid size).
CampaignSpec big_spec() {
  return CampaignSpec::parse("workloads=ecg,wam;seeds=1..16;intensities=0,1;" +
                             std::string(kSharedKnobs));
}

std::string fresh_dir(const char* name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream content;
  content << in.rdbuf();
  return content.str();
}

obs::analysis::CampaignStatus status_of(const std::string& dir) {
  return std::get<obs::analysis::CampaignStatus>(
      obs::analysis::parse_status(slurp(dir + "/status.json")));
}

class CampaignTelemetry : public ::testing::Test {
 protected:
  void SetUp() override {
    was_enabled_ = obs::enabled();
    obs::set_enabled(true);
    obs::MetricsRegistry::global().reset();
  }
  void TearDown() override {
    util::ThreadPool::set_global_threads(
        util::ThreadPool::thread_count_from_env());
    obs::set_enabled(was_enabled_);
  }
  bool was_enabled_ = false;
};

// The disabled-path half of the acceptance criteria: without observability
// no telemetry file exists, and the journal bytes are identical to an
// obs-on run's — the telemetry layer cannot leak into results.
TEST_F(CampaignTelemetry, DisabledObsWritesNoTelemetryAndSameJournal) {
  // One thread so journal append order (completion order) is deterministic,
  // and a fresh cache per run so both journals record artifact_hit=false.
  util::ThreadPool::set_global_threads(1);
  CampaignConfig config;
  config.spec = small_spec();

  config.cache_dir = fresh_dir("ctel_on_cache");
  config.dir = fresh_dir("ctel_on");
  ASSERT_TRUE(run_campaign(config).finished);
  EXPECT_TRUE(std::filesystem::exists(config.dir + "/telemetry.jsonl"));
  EXPECT_TRUE(std::filesystem::exists(config.dir + "/status.json"));
  const std::string on_journal = slurp(config.dir + "/journal.jsonl");

  obs::set_enabled(false);
  config.cache_dir = fresh_dir("ctel_off_cache");
  config.dir = fresh_dir("ctel_off");
  ASSERT_TRUE(run_campaign(config).finished);
  obs::set_enabled(true);
  EXPECT_FALSE(std::filesystem::exists(config.dir + "/telemetry.jsonl"));
  EXPECT_FALSE(std::filesystem::exists(config.dir + "/status.json"));
  EXPECT_EQ(slurp(config.dir + "/journal.jsonl"), on_journal);
}

// A cold run at 4 threads: shards run beside the training lane and may
// defer, and the accounting must stay exact anyway.
TEST_F(CampaignTelemetry, FinishedRunSnapshotAccounting) {
  util::ThreadPool::set_global_threads(4);
  CampaignConfig config;
  config.spec = small_spec();
  config.dir = fresh_dir("ctel_done");
  const CampaignResult result = run_campaign(config);
  ASSERT_TRUE(result.finished);
  EXPECT_EQ(result.trainings, 1u);
  EXPECT_EQ(result.artifact_hits, 0u);

  const obs::analysis::CampaignStatus status = status_of(config.dir);
  EXPECT_EQ(status.state, "finished");
  EXPECT_EQ(status.total, 8u);
  EXPECT_EQ(status.done, 8u);
  EXPECT_EQ(status.executed, 8u);
  EXPECT_EQ(status.in_flight, 0u);
  EXPECT_EQ(status.trainings, 1u);
  EXPECT_EQ(obs::analysis::status_exit_code(status), 0);

  const obs::TelemetryLog log =
      obs::load_telemetry(slurp(config.dir + "/telemetry.jsonl"));
  const auto census = log.census();
  EXPECT_EQ(census.at("shard.claimed"), 8u);
  EXPECT_EQ(census.at("sim.start"), 8u);
  EXPECT_EQ(census.at("shard.done"), 8u);
  EXPECT_EQ(census.at("campaign.finish"), 1u);
  // The stream binds to the same spec digest as the journal header.
  char digest[32];
  std::snprintf(digest, sizeof(digest), "%016llx",
                static_cast<unsigned long long>(config.spec.digest()));
  EXPECT_EQ(log.spec_digest, digest);
}

// A cold 4-thread run: shards start beside the training lane, and those
// that finish their controller-free rows before their controller lands
// wait parked. Each shard still publishes claimed -> sim.start -> done,
// once each and in that order, and a parked shard is no straggler: the
// stall window is far shorter than the (deliberately long) training but
// far longer than any shard's own work.
TEST_F(CampaignTelemetry, ColdRunPublishesShardEventsInOrderWithoutStall) {
  util::ThreadPool::set_global_threads(4);
  CampaignConfig config;
  config.spec = big_spec();
  config.spec.finetune_epochs = 15000;
  config.dir = fresh_dir("ctel_cold");
  config.telemetry_heartbeat_ms = 5;
  config.telemetry_stall_ms = 100;
  const CampaignResult result = run_campaign(config);
  ASSERT_TRUE(result.finished);
  EXPECT_EQ(result.trainings, 2u);

  const obs::analysis::CampaignStatus status = status_of(config.dir);
  EXPECT_EQ(status.state, "finished");
  EXPECT_EQ(status.done, 64u);
  EXPECT_EQ(status.in_flight, 0u);
  EXPECT_EQ(status.stalled, 0u);

  const obs::TelemetryLog log =
      obs::load_telemetry(slurp(config.dir + "/telemetry.jsonl"));
  EXPECT_EQ(log.census().count("campaign.stall"), 0u);
  // Per shard, the events seen so far: 1 claimed, 2 sim.start, 3 done.
  std::map<std::uint64_t, int> stage;
  for (const auto& line : log.events) {
    if (line.shard == obs::kTelemetryNoShard) continue;
    const int want = line.type == "shard.claimed" ? 1
                     : line.type == "sim.start"   ? 2
                     : line.type == "shard.done"  ? 3
                                                  : 0;
    ASSERT_NE(want, 0) << "unexpected " << line.type << " for shard "
                       << line.shard;
    EXPECT_EQ(stage[line.shard], want - 1)
        << line.type << " out of order for shard " << line.shard;
    stage[line.shard] = want;
  }
  ASSERT_EQ(stage.size(), 64u);
  for (const auto& [shard, seen] : stage)
    EXPECT_EQ(seen, 3) << "shard " << shard << " never finished";
}

// The acceptance checkpoint walk: kill a 64-scenario campaign, check
// done/total at the stop, resume, check again at completion. Every
// status.json along the way must agree with the journal's record count.
TEST_F(CampaignTelemetry, KilledThenResumedReportsCorrectDoneTotal) {
  const std::string cache = fresh_dir("ctel_kill_cache");
  const CampaignSpec spec = big_spec();
  ASSERT_EQ(spec.expand().size(), 64u);

  util::ThreadPool::set_global_threads(4);
  CampaignConfig config;
  config.spec = spec;
  config.cache_dir = cache;
  config.dir = fresh_dir("ctel_kill");
  config.stop_after = 17;
  const CampaignResult stopped = run_campaign(config);
  EXPECT_FALSE(stopped.finished);

  // Checkpoint 1: stopped, done == executed so far, correct total.
  obs::analysis::CampaignStatus status = status_of(config.dir);
  EXPECT_EQ(status.state, "stopped");
  EXPECT_EQ(status.total, 64u);
  EXPECT_EQ(status.done, stopped.executed);
  EXPECT_EQ(status.resumed, 0u);
  EXPECT_EQ(obs::analysis::status_exit_code(status), 3);

  // Checkpoint 2: resumed to completion; done/total and the resumed count
  // both match the runner's ground truth.
  config.stop_after = 0;
  const CampaignResult resumed = run_campaign(config);
  ASSERT_TRUE(resumed.finished);
  status = status_of(config.dir);
  EXPECT_EQ(status.state, "finished");
  EXPECT_EQ(status.total, 64u);
  EXPECT_EQ(status.done, 64u);
  EXPECT_EQ(status.resumed, stopped.executed);
  EXPECT_EQ(status.executed, resumed.executed);
  EXPECT_EQ(obs::analysis::status_exit_code(status), 0);

  // Per-workload rows cover the whole grid.
  ASSERT_EQ(status.workloads.size(), 2u);
  std::size_t workload_total = 0, workload_done = 0;
  for (const auto& w : status.workloads) {
    workload_total += w.total;
    workload_done += w.done;
  }
  EXPECT_EQ(workload_total, 64u);
  EXPECT_EQ(workload_done, 64u);

  // The telemetry stream survived the stop/resume as one healed JSONL file:
  // claims/dones across both executions sum to 64 fresh shards.
  const obs::TelemetryLog log =
      obs::load_telemetry(slurp(config.dir + "/telemetry.jsonl"));
  const auto census = log.census();
  EXPECT_EQ(census.at("shard.done"), 64u);
  EXPECT_EQ(census.at("campaign.start"), 2u);
  EXPECT_EQ(census.at("campaign.stop"), 1u);
  EXPECT_EQ(census.at("campaign.finish"), 1u);
}

// The watchdog drill from the acceptance criteria: one shard artificially
// hangs (shard_hook sleeps past the stall window) and must get flagged
// while the campaign still completes.
TEST_F(CampaignTelemetry, WatchdogDrillDetectsHungShard) {
  util::ThreadPool::set_global_threads(2);
  CampaignConfig config;
  config.spec = CampaignSpec::parse(
      "workloads=ecg;seeds=1..2;schedulers=inter,edf;periods=12;slots=10;"
      "days=1");
  config.dir = fresh_dir("ctel_drill");
  config.telemetry_heartbeat_ms = 5;
  config.telemetry_stall_ms = 20;
  config.shard_hook = [](std::size_t shard) {
    if (shard == 0)
      std::this_thread::sleep_for(std::chrono::milliseconds(120));
  };
  const CampaignResult result = run_campaign(config);
  ASSERT_TRUE(result.finished);

  const obs::analysis::CampaignStatus status = status_of(config.dir);
  EXPECT_EQ(status.state, "finished");
  EXPECT_GE(status.stalled, 1u);
  const obs::TelemetryLog log =
      obs::load_telemetry(slurp(config.dir + "/telemetry.jsonl"));
  const auto census = log.census();
  ASSERT_TRUE(census.count("campaign.stall"));
  bool hung_shard_flagged = false;
  for (const auto& line : log.events)
    if (line.type == "campaign.stall" && line.shard == 0)
      hung_shard_flagged = true;
  EXPECT_TRUE(hung_shard_flagged);
  EXPECT_GE(obs::MetricsRegistry::global().snapshot().counter_or(
                "campaign.stall.flagged"),
            1u);
}

// A crash-torn telemetry tail heals on resume exactly like the journal.
TEST_F(CampaignTelemetry, ResumeHealsTornTelemetryTail) {
  CampaignConfig config;
  config.spec = small_spec();
  config.dir = fresh_dir("ctel_torn");
  config.stop_after = 3;
  run_campaign(config);
  std::ofstream(config.dir + "/telemetry.jsonl", std::ios::app)
      << "{\"seq\": 999, \"type\": \"shard.don";
  config.stop_after = 0;
  ASSERT_TRUE(run_campaign(config).finished);
  const obs::TelemetryLog log =
      obs::load_telemetry(slurp(config.dir + "/telemetry.jsonl"));
  EXPECT_EQ(log.dropped_partial, 0u);  // Healed at reopen, not at read.
  EXPECT_EQ(log.census().at("campaign.finish"), 1u);
}

}  // namespace
}  // namespace solsched::campaign
