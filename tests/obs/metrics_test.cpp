// MetricsRegistry: counters/gauges/histograms, sharded-merge determinism,
// snapshot filtering and serialization.
#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <thread>
#include <vector>

#include "obs/json.hpp"

namespace solsched::obs {
namespace {

class MetricsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    set_enabled(true);
    MetricsRegistry::global().reset();
  }
  void TearDown() override { set_enabled(false); }
};

TEST_F(MetricsTest, CounterAddAndReset) {
  Counter c;
  EXPECT_EQ(c.total(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.total(), 42u);
  c.reset();
  EXPECT_EQ(c.total(), 0u);
}

TEST_F(MetricsTest, GaugeHoldsLastWrite) {
  Gauge g;
  EXPECT_EQ(g.value(), 0.0);
  g.set(3.25);
  g.set(-1.5);
  EXPECT_EQ(g.value(), -1.5);
  g.reset();
  EXPECT_EQ(g.value(), 0.0);
}

TEST_F(MetricsTest, HistogramBucketBoundaries) {
  // x lands in the first bucket with x <= bound; the boundary value belongs
  // to the bucket it bounds.
  Histogram h({1.0, 2.0, 4.0});
  h.observe(0.5);   // bucket 0 (<= 1)
  h.observe(1.0);   // bucket 0 (boundary)
  h.observe(1.001); // bucket 1
  h.observe(2.0);   // bucket 1 (boundary)
  h.observe(4.0);   // bucket 2 (boundary)
  h.observe(4.001); // overflow
  h.observe(100.0); // overflow
  const Histogram::Totals t = h.totals();
  ASSERT_EQ(t.bucket_counts.size(), 4u);  // 3 bounds + overflow.
  EXPECT_EQ(t.bucket_counts[0], 2u);
  EXPECT_EQ(t.bucket_counts[1], 2u);
  EXPECT_EQ(t.bucket_counts[2], 1u);
  EXPECT_EQ(t.bucket_counts[3], 2u);
  EXPECT_EQ(t.count, 7u);
  EXPECT_DOUBLE_EQ(t.sum, 0.5 + 1.0 + 1.001 + 2.0 + 4.0 + 4.001 + 100.0);
}

TEST_F(MetricsTest, HistogramBelowFirstBoundAndNegative) {
  Histogram h({0.0, 10.0});
  h.observe(-5.0);  // <= 0 → bucket 0.
  h.observe(0.0);   // boundary → bucket 0.
  const Histogram::Totals t = h.totals();
  EXPECT_EQ(t.bucket_counts[0], 2u);
  EXPECT_EQ(t.bucket_counts[1], 0u);
}

TEST_F(MetricsTest, HistogramRejectsBadBounds) {
  EXPECT_THROW(Histogram({}), std::invalid_argument);
  EXPECT_THROW(Histogram({1.0, 1.0}), std::invalid_argument);
  EXPECT_THROW(Histogram({2.0, 1.0}), std::invalid_argument);
}

TEST_F(MetricsTest, RegistryReturnsStableReferences) {
  MetricsRegistry& reg = MetricsRegistry::global();
  Counter& a = reg.counter("test.stable");
  Counter& b = reg.counter("test.stable");
  EXPECT_EQ(&a, &b);
  a.add(5);
  // reset() zeroes values but keeps the registration (and references) alive.
  reg.reset();
  EXPECT_EQ(b.total(), 0u);
  b.add(1);
  EXPECT_EQ(reg.snapshot().counter_or("test.stable"), 1u);
}

TEST_F(MetricsTest, HistogramBoundsConsultedOnlyOnFirstCreation) {
  MetricsRegistry& reg = MetricsRegistry::global();
  Histogram& h1 = reg.histogram("test.h", {1.0, 2.0});
  Histogram& h2 = reg.histogram("test.h", {99.0});
  EXPECT_EQ(&h1, &h2);
  EXPECT_EQ(h2.upper_bounds(), (std::vector<double>{1.0, 2.0}));
}

// The tentpole determinism claim at metric level: the same multiset of adds
// issued from N threads reaches the same totals as the serial run, because
// shards are merged serially and integer addition is order-independent.
TEST_F(MetricsTest, NThreadTotalsMatchSerialTotals) {
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;

  Counter serial_c;
  Histogram serial_h({10.0, 100.0, 1000.0});
  for (int t = 0; t < kThreads; ++t)
    for (int i = 0; i < kPerThread; ++i) {
      serial_c.add(static_cast<std::uint64_t>(i % 7));
      serial_h.observe(static_cast<double>(i % 128));
    }

  Counter parallel_c;
  Histogram parallel_h({10.0, 100.0, 1000.0});
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t)
    workers.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        parallel_c.add(static_cast<std::uint64_t>(i % 7));
        parallel_h.observe(static_cast<double>(i % 128));
      }
    });
  for (auto& w : workers) w.join();

  EXPECT_EQ(parallel_c.total(), serial_c.total());
  const Histogram::Totals sp = serial_h.totals();
  const Histogram::Totals pp = parallel_h.totals();
  EXPECT_EQ(pp.bucket_counts, sp.bucket_counts);
  EXPECT_EQ(pp.count, sp.count);
  // Integer-valued samples sum exactly, so even the double accumulator is
  // bit-identical regardless of add order.
  EXPECT_EQ(pp.sum, sp.sum);
}

TEST_F(MetricsTest, SnapshotSortedAndQueryable) {
  MetricsRegistry& reg = MetricsRegistry::global();
  reg.counter("b.second").add(2);
  reg.counter("a.first").add(1);
  reg.gauge("g.x").set(0.5);
  const MetricsSnapshot snap = reg.snapshot();
  ASSERT_GE(snap.counters.size(), 2u);
  EXPECT_LT(snap.counters.front().first, snap.counters.back().first);
  EXPECT_EQ(snap.counter_or("a.first"), 1u);
  EXPECT_EQ(snap.counter_or("no.such", 7u), 7u);
}

TEST_F(MetricsTest, WithoutTimingStripsNonDeterministicFamilies) {
  MetricsRegistry& reg = MetricsRegistry::global();
  reg.counter("span.dp.run.calls").add(1);
  reg.counter("span.dp.run.total_us").add(123);
  reg.counter("util.thread_pool.jobs").add(4);
  reg.counter("util.thread_pool.idle_us").add(99);
  reg.counter("nvp.sim.periods").add(12);
  reg.counter("some.timer_us").add(5);
  reg.gauge("util.thread_pool.threads").set(4);
  reg.gauge("pipeline.train_mse").set(0.01);

  const MetricsSnapshot filtered = reg.snapshot().without_timing();
  EXPECT_EQ(filtered.counter_or("nvp.sim.periods"), 12u);
  EXPECT_EQ(filtered.counter_or("span.dp.run.calls"), 0u);
  EXPECT_EQ(filtered.counter_or("span.dp.run.total_us"), 0u);
  EXPECT_EQ(filtered.counter_or("util.thread_pool.jobs"), 0u);
  EXPECT_EQ(filtered.counter_or("some.timer_us"), 0u);
  bool has_pool_gauge = false, has_mse = false;
  for (const auto& [name, value] : filtered.gauges) {
    if (name == "util.thread_pool.threads") has_pool_gauge = true;
    if (name == "pipeline.train_mse") has_mse = true;
  }
  EXPECT_FALSE(has_pool_gauge);
  EXPECT_TRUE(has_mse);
}

TEST_F(MetricsTest, SnapshotJsonShape) {
  MetricsRegistry& reg = MetricsRegistry::global();
  reg.counter("x.count").add(3);
  reg.gauge("x.gauge").set(1.5);
  reg.histogram("x.hist", {1.0, 2.0}).observe(0.5);
  // Names are escaped like every JSON string the repo writes: a span label
  // with a quote or a newline (ScopedSpan takes any name) still parses.
  const std::string nasty = "span.row \"quoted\"\nline.calls";
  reg.counter(nasty).add(2);
  const std::string json = reg.snapshot().to_json();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"x.count\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"x.gauge\": 1.5"), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  const JsonValue doc = parse_json(json);
  const JsonValue* counters = doc.find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_EQ(counters->number_or(nasty), 2.0);
}

TEST_F(MetricsTest, MacrosNoOpWhenDisabled) {
  set_enabled(false);
  OBS_COUNTER_ADD("test.macro.counter", 10);
  OBS_GAUGE_SET("test.macro.gauge", 1.0);
  OBS_HISTOGRAM_OBSERVE("test.macro.hist", (std::vector<double>{1.0}), 0.5);
  set_enabled(true);
  const MetricsSnapshot snap = MetricsRegistry::global().snapshot();
  EXPECT_EQ(snap.counter_or("test.macro.counter"), 0u);
  for (const auto& [name, value] : snap.gauges)
    EXPECT_NE(name, "test.macro.gauge");
}

TEST_F(MetricsTest, MacrosRecordWhenEnabled) {
  OBS_COUNTER_ADD("test.macro2.counter", 2);
  OBS_COUNTER_ADD("test.macro2.counter", 3);
  OBS_GAUGE_SET("test.macro2.gauge", 2.25);
  OBS_HISTOGRAM_OBSERVE("test.macro2.hist", (std::vector<double>{1.0, 2.0}),
                        1.5);
  const MetricsSnapshot snap = MetricsRegistry::global().snapshot();
  EXPECT_EQ(snap.counter_or("test.macro2.counter"), 5u);
  bool gauge_ok = false;
  for (const auto& [name, value] : snap.gauges)
    if (name == "test.macro2.gauge" && value == 2.25) gauge_ok = true;
  EXPECT_TRUE(gauge_ok);
  // reset() keeps registrations, so histograms of earlier tests in this
  // process are still listed (at zero): look this one up by name.
  const auto hist =
      std::find_if(snap.histograms.begin(), snap.histograms.end(),
                   [](const auto& h) { return h.name == "test.macro2.hist"; });
  ASSERT_NE(hist, snap.histograms.end());
  EXPECT_EQ(hist->count, 1u);
  EXPECT_EQ(hist->bucket_counts[1], 1u);
}

}  // namespace
}  // namespace solsched::obs
