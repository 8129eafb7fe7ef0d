// TimeseriesStore: counter-delta semantics, ring wraparound, the
// util::write_atomic JSONL round trip, and the torn-tail heal contract
// shared with the journal and telemetry readers (one torn final line
// forgiven, earlier corruption is an error).
#include "obs/tsdb.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "../test_helpers.hpp"

namespace solsched::obs {
namespace {

std::string tmp_path(const char* name) {
  const std::string dir = ::testing::TempDir() + "/tsdb_test";
  std::filesystem::create_directories(dir);
  return dir + "/" + name;
}

MetricsSnapshot snapshot_with(std::uint64_t counter, double gauge,
                              std::vector<std::uint64_t> buckets) {
  MetricsSnapshot s;
  s.counters.emplace_back("serve.requests", counter);
  s.gauges.emplace_back("serve.queue_depth", gauge);
  MetricsSnapshot::HistogramEntry h;
  h.name = "serve.latency_us";
  h.upper_bounds = {100.0, 1000.0, 10000.0};
  h.bucket_counts = std::move(buckets);
  s.histograms.push_back(std::move(h));
  return s;
}

TEST(HistogramPercentile, NearestRankWithOverflowSentinel) {
  const std::vector<double> bounds = {100.0, 1000.0, 10000.0};
  EXPECT_EQ(histogram_percentile(bounds, {0, 0, 0, 0}, 0.99), 0.0);
  // 100 samples all in the first bucket: every percentile is 100.
  EXPECT_EQ(histogram_percentile(bounds, {100, 0, 0, 0}, 0.50), 100.0);
  EXPECT_EQ(histogram_percentile(bounds, {100, 0, 0, 0}, 0.99), 100.0);
  // 99 fast + 1 slow: p50 is still fast, p99 lands on rank 99 (the fast
  // bucket's last sample), p100-ish rank would hit the slow one.
  EXPECT_EQ(histogram_percentile(bounds, {99, 1, 0, 0}, 0.50), 100.0);
  EXPECT_EQ(histogram_percentile(bounds, {99, 1, 0, 0}, 0.99), 100.0);
  EXPECT_EQ(histogram_percentile(bounds, {98, 2, 0, 0}, 0.99), 1000.0);
  // Overflow bucket reports twice the last bound as a sentinel magnitude.
  EXPECT_EQ(histogram_percentile(bounds, {0, 0, 0, 5}, 0.99), 20000.0);
}

TEST(TimeseriesStore, CountersBecomeClampedDeltasAndGaugesCopy) {
  TimeseriesStore store(8);
  store.sample(1000, snapshot_with(100, 3.0, {100, 0, 0, 0}));
  store.sample(2000, snapshot_with(150, 5.0, {100, 50, 0, 0}));
  // Registry reset between samples: the counter went backwards; the rate
  // clamps to zero instead of wrapping.
  store.sample(3000, snapshot_with(10, 4.0, {100, 50, 0, 0}));
  ASSERT_EQ(store.size(), 3u);

  // First sample: delta against an implicit zero base.
  EXPECT_EQ(store.at(0).value_or("serve.requests"), 100.0);
  EXPECT_EQ(store.at(1).value_or("serve.requests"), 50.0);
  EXPECT_EQ(store.at(2).value_or("serve.requests"), 0.0);
  EXPECT_EQ(store.at(0).value_or("serve.queue_depth"), 3.0);
  EXPECT_EQ(store.at(1).value_or("serve.queue_depth"), 5.0);

  // Histogram percentiles are over interval bucket deltas: the second
  // interval's 50 samples all landed in the 1000 us bucket.
  EXPECT_EQ(store.at(0).value_or("serve.latency_us.p99"), 100.0);
  EXPECT_EQ(store.at(1).value_or("serve.latency_us.p50"), 1000.0);
  EXPECT_EQ(store.at(1).value_or("serve.latency_us.p99"), 1000.0);
  // Idle interval: empty delta, percentiles report 0.
  EXPECT_EQ(store.at(2).value_or("serve.latency_us.p99"), 0.0);
}

TEST(TimeseriesStore, RingWrapsOldestFirst) {
  TimeseriesStore store(4);
  for (std::uint64_t i = 1; i <= 7; ++i)
    store.sample(i * 1000, snapshot_with(i * 10, 0.0, {i, 0, 0, 0}));
  ASSERT_EQ(store.size(), 4u);
  EXPECT_EQ(store.capacity(), 4u);
  // Samples 1..3 were evicted; 4..7 remain oldest-first.
  EXPECT_EQ(store.at(0).wall_ms, 4000u);
  EXPECT_EQ(store.at(1).wall_ms, 5000u);
  EXPECT_EQ(store.at(2).wall_ms, 6000u);
  EXPECT_EQ(store.at(3).wall_ms, 7000u);
  // Deltas survive the wrap: each interval added 10.
  EXPECT_EQ(store.at(3).value_or("serve.requests"), 10.0);
}

TEST(TimeseriesStore, JsonlRoundTripIsExact) {
  const std::string path = tmp_path("roundtrip.jsonl");
  TimeseriesStore store(8);
  store.sample(1111, snapshot_with(100, 2.5, {50, 50, 0, 0}));
  store.sample(2222, snapshot_with(300, 0.125, {100, 80, 20, 0}));
  ASSERT_TRUE(store.write_jsonl(path));

  std::vector<TimeseriesPoint> points;
  std::string error;
  ASSERT_TRUE(TimeseriesStore::read_jsonl(path, &points, &error)) << error;
  ASSERT_EQ(points.size(), 2u);
  EXPECT_EQ(points[0].wall_ms, 1111u);
  EXPECT_EQ(points[1].wall_ms, 2222u);
  for (std::size_t i = 0; i < points.size(); ++i) {
    ASSERT_EQ(points[i].values.size(), store.at(i).values.size());
    for (std::size_t k = 0; k < points[i].values.size(); ++k) {
      EXPECT_EQ(points[i].values[k].first, store.at(i).values[k].first);
      // Shortest round-trip formatting: doubles come back bit-exact.
      EXPECT_EQ(points[i].values[k].second, store.at(i).values[k].second);
    }
  }
}

TEST(TimeseriesStore, TornFinalLineHealsButEarlierCorruptionIsAnError) {
  const std::string path = tmp_path("torn.jsonl");
  TimeseriesStore store(8);
  store.sample(1000, snapshot_with(10, 1.0, {1, 0, 0, 0}));
  store.sample(2000, snapshot_with(20, 1.0, {2, 0, 0, 0}));
  ASSERT_TRUE(store.write_jsonl(path));

  // A crash mid-write of a successor generation leaves a torn final line.
  {
    std::ofstream app(path, std::ios::app | std::ios::binary);
    app << "{\"t\":3000,\"v\":{\"serve.req";
  }
  std::vector<TimeseriesPoint> points;
  std::string error;
  ASSERT_TRUE(TimeseriesStore::read_jsonl(path, &points, &error)) << error;
  EXPECT_EQ(points.size(), 2u);

  // Corruption with valid lines after it is not a torn tail: hard error.
  {
    std::ofstream out(path, std::ios::trunc | std::ios::binary);
    out << "{\"t\":1000,\"v\":{\"a\":1}}\n"
        << "definitely not json\n"
        << "{\"t\":2000,\"v\":{\"a\":2}}\n";
  }
  EXPECT_FALSE(TimeseriesStore::read_jsonl(path, &points, &error));
  EXPECT_NE(error.find("line 2"), std::string::npos) << error;

  // A point that parses but whose stamp is not plain digits below 2^64, or
  // whose value is not a finite number, is an error naming its line.
  for (const char* bad : {"{\"t\":-1,\"v\":{}}", "{\"t\":1e3,\"v\":{}}",
                          "{\"t\":18446744073709551616,\"v\":{}}",
                          "{\"t\":1,\"v\":{\"a\":\"x\"}}", "{\"t\":1}"}) {
    SCOPED_TRACE(bad);
    {
      std::ofstream out(path, std::ios::trunc | std::ios::binary);
      out << "{\"t\":1000,\"v\":{\"a\":1}}\n" << bad << "\n";
    }
    EXPECT_FALSE(TimeseriesStore::read_jsonl(path, &points, &error));
    EXPECT_NE(error.find("line 2: "), std::string::npos) << error;
  }

  EXPECT_FALSE(
      TimeseriesStore::read_jsonl(tmp_path("absent.jsonl"), &points, &error));
}

// write_jsonl reports a write that cannot complete as false, keeps the old
// file and leaves no .tmp (it used to ignore its fsync and leak the .tmp of
// a failed rename).
TEST(TimeseriesStore, WriteThatCannotCompleteReturnsFalseAndLeavesNoTmp) {
  TimeseriesStore store(4);
  MetricsSnapshot s;
  s.counters.emplace_back("serve.requests", 3);
  store.sample(1000, s);

  const std::string dir = tmp_path("tsdb_dir_target");
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  EXPECT_FALSE(store.write_jsonl(dir));  // Target is a directory.
  EXPECT_FALSE(std::filesystem::exists(dir + ".tmp"));
  EXPECT_FALSE(store.write_jsonl(tmp_path("no_such_dir/ring.jsonl")));

  const std::string path = tmp_path("short_write.jsonl");
  {
    std::ofstream old(path, std::ios::trunc);
    old << "{\"t\":1,\"v\":{}}\n";
  }
  for (std::uint64_t t = 2; t < 40; ++t) store.sample(1000 * t, s);
  {
    const test::FileSizeLimit limit(32);
    EXPECT_FALSE(store.write_jsonl(path));
  }
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  std::vector<TimeseriesPoint> points;
  std::string error;
  ASSERT_TRUE(TimeseriesStore::read_jsonl(path, &points, &error)) << error;
  ASSERT_EQ(points.size(), 1u);
  EXPECT_EQ(points[0].wall_ms, 1u);
}

TEST(TimeseriesStore, HostileMetricNamesCannotTearALine) {
  const std::string path = tmp_path("hostile.jsonl");
  TimeseriesStore store(2);
  MetricsSnapshot s;
  s.counters.emplace_back("evil\"name\\with\"quotes", 7);
  s.counters.emplace_back("line\nbreak\ttab\x01", 9);
  store.sample(500, s);
  ASSERT_TRUE(store.write_jsonl(path));
  std::vector<TimeseriesPoint> points;
  std::string error;
  ASSERT_TRUE(TimeseriesStore::read_jsonl(path, &points, &error)) << error;
  ASSERT_EQ(points.size(), 1u);
  EXPECT_EQ(points[0].value_or("evil\"name\\with\"quotes"), 7.0);
  EXPECT_EQ(points[0].value_or("line\nbreak\ttab\x01"), 9.0);
}

}  // namespace
}  // namespace solsched::obs
