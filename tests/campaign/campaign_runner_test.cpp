// Campaign runner acceptance tests: train-once dedup, warm-cache reruns,
// the headline property — a campaign killed mid-run resumes to
// bit-identical aggregates at any thread count — and the cold schedule:
// rows computed while the controllers still train equal the rows a warm
// (cache-hit) run computes.
#include "campaign/runner.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "../test_helpers.hpp"
#include "campaign/report.hpp"
#include "obs/metrics.hpp"
#include "util/durable.hpp"
#include "util/thread_pool.hpp"

namespace solsched::campaign {
namespace {

// Axes shrunk to the test-helper grid scale: every shard is one day of
// 12 periods x 10 slots, the pipeline is two-epoch / six-bucket tiny.
const char* kSharedKnobs =
    "fault=blackout=2;schedulers=inter,proposed;periods=12;slots=10;days=1;"
    "train_days=1;n_caps=2;dp_buckets=6;pretrain_epochs=2;finetune_epochs=10";

CampaignSpec one_workload_spec() {
  return CampaignSpec::parse(
      "workloads=ecg;seeds=1..8;intensities=0,1;" + std::string(kSharedKnobs));
}

// 2 workloads x 16 seeds x 2 intensities = 64 scenarios.
CampaignSpec big_spec() {
  return CampaignSpec::parse("workloads=ecg,wam;seeds=1..16;intensities=0,1;" +
                             std::string(kSharedKnobs));
}

// big_spec with a three-day training climate: sizing then keeps two
// capacitors, and the one nearest the mean daily optimum (the baselines'
// pick while the sizing table exists) is not the largest (their pick after
// the cache round trip drops it). Rows computed on the pre-round-trip
// controller therefore differ from a warm run's.
CampaignSpec two_cap_spec() {
  CampaignSpec spec = big_spec();
  spec.train_days = 3;
  return spec;
}

std::string fresh_dir(const char* name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

// Journal lines with artifact_hit masked: the one field in which a cold
// run's records may differ from a warm run's.
std::vector<std::string> lines_without_hit(std::vector<ShardRecord> records) {
  std::vector<std::string> lines;
  for (ShardRecord& rec : records) {
    rec.artifact_hit = false;
    lines.push_back(rec.to_json());
  }
  return lines;
}

class CampaignRunner : public ::testing::Test {
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

TEST_F(CampaignRunner, SharedConfigGridTrainsExactlyOnce) {
  CampaignConfig config;
  config.spec = one_workload_spec();
  config.dir = fresh_dir("camp_train_once");
  const CampaignResult result = run_campaign(config);
  EXPECT_TRUE(result.finished);
  EXPECT_EQ(result.total_shards, 16u);
  EXPECT_EQ(result.executed, 16u);
  EXPECT_EQ(result.resumed, 0u);
  // All 16 scenarios share one offline config: exactly one training.
  EXPECT_EQ(result.trainings, 1u);
  EXPECT_EQ(result.artifact_disk_hits, 0u);
  const auto snap = obs::MetricsRegistry::global().snapshot();
  EXPECT_EQ(snap.counter_or("campaign.train.runs"), 1);
  EXPECT_EQ(snap.counter_or("campaign.artifact_cache.disk_misses"), 1);
  EXPECT_EQ(snap.counter_or("campaign.shards.executed"), 16);
  EXPECT_EQ(snap.counter_or("campaign.journal.appends"), 16);
  ASSERT_EQ(result.records.size(), 16u);
  for (std::size_t i = 0; i < result.records.size(); ++i) {
    EXPECT_EQ(result.records[i].shard, i);
    EXPECT_EQ(result.records[i].rows.size(), 2u);  // inter + proposed.
    EXPECT_FALSE(result.records[i].artifact_hit);
    EXPECT_NE(result.records[i].artifact_key, 0u);
    // Every shard carries the trained controller's predict_batch decision
    // fingerprint, identical across shards of the shared artifact.
    EXPECT_NE(result.records[i].controller_fingerprint, 0u);
    EXPECT_EQ(result.records[i].controller_fingerprint,
              result.records[0].controller_fingerprint);
  }
}

TEST_F(CampaignRunner, WarmCacheRunTrainsZeroTimes) {
  const std::string cache = fresh_dir("camp_warm_cache");
  CampaignConfig config;
  config.spec = one_workload_spec();
  config.dir = fresh_dir("camp_warm_a");
  config.cache_dir = cache;
  const CampaignResult cold = run_campaign(config);
  EXPECT_EQ(cold.trainings, 1u);

  obs::MetricsRegistry::global().reset();
  config.dir = fresh_dir("camp_warm_b");
  const CampaignResult warm = run_campaign(config);
  EXPECT_TRUE(warm.finished);
  EXPECT_EQ(warm.trainings, 0u);
  EXPECT_EQ(warm.artifact_disk_hits, 1u);
  EXPECT_EQ(warm.artifact_hits, warm.executed);
  const auto snap = obs::MetricsRegistry::global().snapshot();
  EXPECT_EQ(snap.counter_or("campaign.train.runs"), 0);
  EXPECT_EQ(snap.counter_or("campaign.artifact_cache.disk_hits"), 1);
  EXPECT_EQ(snap.counter_or("campaign.artifact_cache.hits"), 16);
  // Cache-hit and train-then-reload controllers are the same artifact, so
  // the rows — and hence the aggregates — are bit-identical.
  EXPECT_EQ(aggregate_json(warm.records), aggregate_json(cold.records));
  // Same artifact → same predict_batch fingerprint, trained or reloaded.
  ASSERT_FALSE(warm.records.empty());
  EXPECT_NE(warm.records[0].controller_fingerprint, 0u);
  EXPECT_EQ(warm.records[0].controller_fingerprint,
            cold.records[0].controller_fingerprint);
}

// The ISSUE acceptance test: a >= 64-scenario campaign killed mid-run
// resumes to aggregates bit-identical to an uninterrupted run, verified at
// 1 and N threads (shared artifact cache keeps it one training per
// workload across all executions).
TEST_F(CampaignRunner, KilledCampaignResumesBitIdentical) {
  const std::string cache = fresh_dir("camp_kill_cache");
  const CampaignSpec spec = big_spec();
  ASSERT_GE(spec.expand().size(), 64u);

  // Reference: uninterrupted, fully serial.
  util::ThreadPool::set_global_threads(1);
  CampaignConfig config;
  config.spec = spec;
  config.cache_dir = cache;
  config.dir = fresh_dir("camp_kill_serial");
  const CampaignResult serial = run_campaign(config);
  ASSERT_TRUE(serial.finished);
  const std::string want = aggregate_json(serial.records);

  // Killed at ~17 completions under 4 threads, then resumed.
  util::ThreadPool::set_global_threads(4);
  config.dir = fresh_dir("camp_kill_resume");
  config.stop_after = 17;
  const CampaignResult stopped = run_campaign(config);
  EXPECT_FALSE(stopped.finished);
  EXPECT_GE(stopped.executed, 17u);
  EXPECT_LT(stopped.executed, 64u);
  config.stop_after = 0;
  const CampaignResult resumed = run_campaign(config);
  ASSERT_TRUE(resumed.finished);
  EXPECT_EQ(resumed.resumed, stopped.executed);
  EXPECT_EQ(resumed.executed + resumed.resumed, 64u);
  EXPECT_EQ(aggregate_json(resumed.records), want);

  // Uninterrupted at 4 threads agrees too.
  config.dir = fresh_dir("camp_kill_parallel");
  const CampaignResult parallel = run_campaign(config);
  ASSERT_TRUE(parallel.finished);
  EXPECT_EQ(aggregate_json(parallel.records), want);
  // One training per workload across every execution above.
  const auto snap = obs::MetricsRegistry::global().snapshot();
  EXPECT_EQ(snap.counter_or("campaign.train.runs"), 2);
}

// Cold runs split each shard: controller-free rows run at once on the
// early node, controller rows once the reloaded controller lands. Every
// record must equal the warm (one-pass, cache-hit) run's except for
// artifact_hit, at 1 thread (trainings finish first) and at 4 (shards run
// beside the training lane and some defer).
TEST_F(CampaignRunner, ColdRecordsEqualWarmRecordsAtOneAndFourThreads) {
  const CampaignSpec spec = two_cap_spec();
  std::vector<std::string> reference;
  for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    util::ThreadPool::set_global_threads(threads);
    CampaignConfig config;
    config.spec = spec;
    config.cache_dir = fresh_dir("camp_cold_cache");
    config.dir = fresh_dir("camp_cold");
    const CampaignResult cold = run_campaign(config);
    ASSERT_TRUE(cold.finished);
    EXPECT_EQ(cold.trainings, 2u);
    EXPECT_EQ(cold.artifact_hits, 0u);

    config.dir = fresh_dir("camp_cold_warm");
    const CampaignResult warm = run_campaign(config);
    ASSERT_TRUE(warm.finished);
    EXPECT_EQ(warm.trainings, 0u);
    EXPECT_EQ(warm.artifact_hits, warm.executed);

    const std::vector<std::string> cold_lines = lines_without_hit(cold.records);
    const std::vector<std::string> warm_lines = lines_without_hit(warm.records);
    if (reference.empty()) reference = cold_lines;
    ASSERT_EQ(cold_lines.size(), 64u);
    ASSERT_EQ(warm_lines.size(), 64u);
    ASSERT_EQ(reference.size(), 64u);
    for (std::size_t i = 0; i < cold_lines.size(); ++i) {
      ASSERT_EQ(cold_lines[i], warm_lines[i]) << "cold vs warm, shard " << i;
      ASSERT_EQ(cold_lines[i], reference[i]) << "4 vs 1 thread, shard " << i;
    }
  }
}

// --stop-after while the training lane is still busy: wam (first in the
// grid) trains cold while ecg's controller is already cached, so ecg
// shards complete and trip the stop while wam shards sit deferred. The
// deferred shards stay unjournaled and the resume recomputes them.
TEST_F(CampaignRunner, StopWhileTrainingResumesBitIdentical) {
  const CampaignSpec spec = CampaignSpec::parse(
      "workloads=wam,ecg;seeds=1..16;intensities=0,1;" +
      std::string(kSharedKnobs));
  CampaignConfig config;
  config.spec = spec;
  config.cache_dir = fresh_dir("camp_stop_ref_cache");
  config.dir = fresh_dir("camp_stop_ref");
  util::ThreadPool::set_global_threads(1);
  const std::string want = aggregate_json(run_campaign(config).records);

  // Warm ecg only, in a fresh cache: artifact keys ignore the seed axis.
  config.cache_dir = fresh_dir("camp_stop_cache");
  config.spec = one_workload_spec();
  config.dir = fresh_dir("camp_stop_ecg");
  ASSERT_TRUE(run_campaign(config).finished);

  util::ThreadPool::set_global_threads(4);
  config.spec = spec;
  config.dir = fresh_dir("camp_stop");
  config.stop_after = 3;
  const CampaignResult stopped = run_campaign(config);
  EXPECT_FALSE(stopped.finished);
  EXPECT_EQ(stopped.trainings, 1u);
  EXPECT_GE(stopped.executed, 3u);
  EXPECT_LT(stopped.executed, 64u);

  config.stop_after = 0;
  const CampaignResult resumed = run_campaign(config);
  ASSERT_TRUE(resumed.finished);
  EXPECT_EQ(resumed.trainings, 0u);
  EXPECT_EQ(resumed.resumed, stopped.executed);
  EXPECT_EQ(aggregate_json(resumed.records), want);
}

// A training whose artifact store fails (file-size limit) fails the run
// with the store's typed util::IoError, not with anything the shards beside
// it did; the rerun trains again and resumes bit-identically.
TEST_F(CampaignRunner, FailedArtifactStoreSurfacesIoErrorAndRerunResumes) {
  obs::set_enabled(false);  // Keep telemetry files out of the size limit.
  const CampaignSpec spec = big_spec();
  CampaignConfig config;
  config.spec = spec;
  config.cache_dir = fresh_dir("camp_store_ref_cache");
  config.dir = fresh_dir("camp_store_ref");
  const std::string want = aggregate_json(run_campaign(config).records);

  util::ThreadPool::set_global_threads(4);
  config.cache_dir = fresh_dir("camp_store_cache");
  config.dir = fresh_dir("camp_store");
  {
    // Far above a journal header, far below a controller bundle; no shard
    // of a cold workload journals before its controller exists.
    const test::FileSizeLimit limit(1024);
    EXPECT_THROW(run_campaign(config), util::IoError);
  }
  const CampaignResult rerun = run_campaign(config);
  ASSERT_TRUE(rerun.finished);
  EXPECT_EQ(rerun.trainings, 2u);
  EXPECT_EQ(aggregate_json(rerun.records), want);
}

TEST_F(CampaignRunner, ResumeHealsCrashTornJournalTail) {
  const std::string cache = fresh_dir("camp_torn_cache");
  CampaignConfig config;
  config.spec = one_workload_spec();
  config.cache_dir = cache;
  config.dir = fresh_dir("camp_torn_ref");
  const std::string want = aggregate_json(run_campaign(config).records);

  config.dir = fresh_dir("camp_torn");
  config.stop_after = 5;
  run_campaign(config);
  // Simulate a kill mid-append: a partial record with no newline.
  std::ofstream(config.dir + "/journal.jsonl", std::ios::app)
      << "{\"shard\": 99, \"key\": \"to";
  config.stop_after = 0;
  const CampaignResult resumed = run_campaign(config);
  ASSERT_TRUE(resumed.finished);
  EXPECT_EQ(aggregate_json(resumed.records), want);
}

TEST_F(CampaignRunner, RefusesJournalOfDifferentSpec) {
  CampaignConfig config;
  config.spec = one_workload_spec();
  config.dir = fresh_dir("camp_mismatch");
  config.stop_after = 1;
  run_campaign(config);
  config.spec.seeds.push_back(99);  // Different grid, same directory.
  EXPECT_THROW(run_campaign(config), std::runtime_error);
}

TEST_F(CampaignRunner, NoProposedSchedulerSkipsTraining) {
  CampaignConfig config;
  config.spec = CampaignSpec::parse(
      "workloads=ecg;seeds=1..2;schedulers=inter,edf;periods=12;slots=10;"
      "days=1");
  config.dir = fresh_dir("camp_untrained");
  const CampaignResult result = run_campaign(config);
  EXPECT_TRUE(result.finished);
  EXPECT_EQ(result.trainings, 0u);
  const auto snap = obs::MetricsRegistry::global().snapshot();
  EXPECT_EQ(snap.counter_or("campaign.train.runs"), 0);
  ASSERT_EQ(result.records.size(), 2u);
  for (const ShardRecord& rec : result.records) {
    EXPECT_EQ(rec.rows.size(), 2u);  // inter + edf, no pipeline involved.
    EXPECT_EQ(rec.artifact_key, 0u);
  }
}

TEST_F(CampaignRunner, RerunOfFinishedCampaignExecutesNothing) {
  CampaignConfig config;
  config.spec = one_workload_spec();
  config.dir = fresh_dir("camp_idem");
  const CampaignResult first = run_campaign(config);
  ASSERT_TRUE(first.finished);
  const CampaignResult again = run_campaign(config);
  EXPECT_TRUE(again.finished);
  EXPECT_EQ(again.executed, 0u);
  EXPECT_EQ(again.resumed, 16u);
  EXPECT_EQ(again.trainings, 0u);
  EXPECT_EQ(aggregate_json(again.records), aggregate_json(first.records));
}

}  // namespace
}  // namespace solsched::campaign
