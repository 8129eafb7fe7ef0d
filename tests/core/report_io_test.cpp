// Tests for report generation and controller persistence.
#include <gtest/gtest.h>

#include "../test_helpers.hpp"
#include "core/controller_io.hpp"
#include "core/report.hpp"
#include "nvp/node_sim.hpp"
#include "obs/metrics.hpp"
#include "sched/edf.hpp"

namespace solsched::core {
namespace {

nvp::SimResult tiny_run() {
  const auto grid = test::tiny_grid();
  const auto gen = test::scaled_generator(grid, 71);
  const auto trace = gen.generate_day(solar::DayKind::kPartlyCloudy, grid);
  sched::EdfScheduler policy;
  return nvp::simulate(test::indep3(), trace, policy,
                       test::small_node(grid));
}

TEST(Report, SummaryContainsKeyNumbers) {
  const auto result = tiny_run();
  const std::string text = summarize(result, "tiny", 1);
  EXPECT_NE(text.find("tiny"), std::string::npos);
  EXPECT_NE(text.find("overall DMR"), std::string::npos);
  EXPECT_NE(text.find("solar harvested"), std::string::npos);
}

TEST(Report, CsvHasOneRowPerPeriod) {
  const auto result = tiny_run();
  const std::string csv = to_csv(result);
  const std::size_t lines =
      static_cast<std::size_t>(std::count(csv.begin(), csv.end(), '\n'));
  EXPECT_EQ(lines, result.periods.size() + 1);  // Header + rows.
  EXPECT_NE(csv.find("day,period,dmr"), std::string::npos);
}

// An empty snapshot with observability off yields the one-line notice — a
// run that asked for metrics never reports silence. With obs on, the empty
// snapshot stays an empty string so callers can append unconditionally.
TEST(Report, MetricsReportExplainsDisabledObservability) {
  const bool was_enabled = obs::enabled();
  obs::set_enabled(false);
  EXPECT_EQ(metrics_report(obs::MetricsSnapshot{}),
            "observability disabled (SOLSCHED_OBS unset)\n");
  obs::set_enabled(true);
  EXPECT_EQ(metrics_report(obs::MetricsSnapshot{}), "");
  obs::set_enabled(was_enabled);
}

TEST(Report, MetricsReportRendersNonEmptySnapshot) {
  obs::MetricsSnapshot snap;
  snap.counters.emplace_back("sim.periods", 12);
  const std::string text = metrics_report(snap);
  EXPECT_NE(text.find("sim.periods"), std::string::npos);
  EXPECT_NE(text.find("12"), std::string::npos);
}

// Histogram lines carry nearest-rank p50/p90/p99 resolved to bucket upper
// bounds, matching the campaign-aggregate index rule
// (util::nearest_rank_index: rank = (n-1)*percent/100).
TEST(Report, MetricsReportHistogramQuantiles) {
  obs::MetricsSnapshot snap;
  obs::MetricsSnapshot::HistogramEntry h;
  h.name = "sim.slot_us";
  h.upper_bounds = {1.0, 10.0, 100.0};
  // 100 samples: 60 in <=1, 35 in <=10, 4 in <=100, 1 overflow.
  h.bucket_counts = {60, 35, 4, 1};
  h.count = 100;
  h.sum = 500.0;
  snap.histograms.push_back(h);
  const std::string text = metrics_report(snap);
  // Ranks: p50 -> 49 (bucket <=1), p90 -> 89 (bucket <=10),
  // p99 -> 98 (bucket <=100).
  EXPECT_NE(text.find("p50<=1.0000"), std::string::npos) << text;
  EXPECT_NE(text.find("p90<=10.0000"), std::string::npos) << text;
  EXPECT_NE(text.find("p99<=100.0000"), std::string::npos) << text;

  // Every sample in the overflow bucket: quantiles report "> last bound".
  snap.histograms[0].bucket_counts = {0, 0, 0, 100};
  const std::string overflow = metrics_report(snap);
  EXPECT_NE(overflow.find("p50>100.0000"), std::string::npos) << overflow;
  EXPECT_NE(overflow.find("p99>100.0000"), std::string::npos) << overflow;
}

TEST(Report, MetricsReportGuardsDegenerateHistograms) {
  // A histogram that was registered but never observed: no percentile
  // columns, no crash.
  obs::MetricsSnapshot snap;
  obs::MetricsSnapshot::HistogramEntry empty;
  empty.name = "serve.latency_us";
  empty.upper_bounds = {1.0, 10.0};
  empty.bucket_counts = {0, 0, 0};
  empty.count = 0;
  snap.histograms.push_back(empty);
  std::string text = metrics_report(snap);
  EXPECT_NE(text.find("serve.latency_us: n=0"), std::string::npos) << text;
  EXPECT_EQ(text.find("p50"), std::string::npos) << text;

  // count > 0 with no buckets at all (hand-built or torn snapshot): the
  // percentile pass must not index into empty vectors.
  snap.histograms[0].bucket_counts.clear();
  snap.histograms[0].upper_bounds.clear();
  snap.histograms[0].count = 5;
  snap.histograms[0].sum = 50.0;
  text = metrics_report(snap);
  EXPECT_NE(text.find("n=5"), std::string::npos) << text;
  EXPECT_EQ(text.find("p50"), std::string::npos) << text;

  // Bucket sums below count (same torn-snapshot family): no dangling
  // "p99" label with no value behind it.
  snap.histograms[0].upper_bounds = {1.0};
  snap.histograms[0].bucket_counts = {3, 0};  // Sums to 3, count says 5.
  text = metrics_report(snap);
  EXPECT_NE(text.find("p50<=1.0000"), std::string::npos) << text;
  EXPECT_EQ(text.find("p99"), std::string::npos) << text;
}

TEST(Report, WriteTextFileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/solsched_report.txt";
  EXPECT_TRUE(write_text_file(path, "hello"));
  EXPECT_FALSE(write_text_file("/no_such_dir_xyz/file.txt", "x"));
}

// ------------------------------------------------------------------ IO ----

const TrainedController& controller() {
  static const TrainedController c = [] {
    const auto grid = test::small_grid();
    const auto gen = test::scaled_generator(grid, 72);
    PipelineConfig config;
    config.n_caps = 3;
    config.dp.energy_buckets = 8;
    config.dbn.pretrain.epochs = 2;
    config.dbn.finetune.epochs = 20;
    return train_pipeline(test::indep3(), gen.generate_days(2, grid),
                          test::small_node(grid), config);
  }();
  return c;
}

TEST(ControllerIo, SerializeDeserializePreservesInference) {
  const TrainedController& original = controller();
  const std::string blob = serialize_controller(original);
  const TrainedController restored = deserialize_controller(blob);

  EXPECT_EQ(restored.node.capacities_f, original.node.capacities_f);
  EXPECT_EQ(restored.model.n_slots, original.model.n_slots);
  EXPECT_EQ(restored.model.n_tasks, original.model.n_tasks);
  EXPECT_DOUBLE_EQ(restored.online.e_th_j, original.online.e_th_j);
  EXPECT_EQ(restored.online.greedy_bank, original.online.greedy_bank);

  // Identical DBN outputs on an arbitrary input.
  ann::Vector x(original.model.dbn->n_inputs(), 0.3);
  const auto y1 = original.model.dbn->predict(x);
  const auto y2 = restored.model.dbn->predict(x);
  ASSERT_EQ(y1.size(), y2.size());
  for (std::size_t i = 0; i < y1.size(); ++i) EXPECT_DOUBLE_EQ(y1[i], y2[i]);
}

TEST(ControllerIo, RestoredControllerSchedulesIdentically) {
  const TrainedController& original = controller();
  const TrainedController restored =
      deserialize_controller(serialize_controller(original));
  const auto grid = test::small_grid();
  const auto gen = test::scaled_generator(grid, 73);
  const auto trace = gen.generate_day(solar::DayKind::kPartlyCloudy, grid);
  auto p1 = make_proposed(original);
  auto p2 = make_proposed(restored);
  const auto r1 =
      nvp::simulate(test::indep3(), trace, *p1, original.node);
  const auto r2 =
      nvp::simulate(test::indep3(), trace, *p2, restored.node);
  EXPECT_DOUBLE_EQ(r1.overall_dmr(), r2.overall_dmr());
  EXPECT_DOUBLE_EQ(r1.energy_utilization(), r2.energy_utilization());
}

TEST(ControllerIo, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/solsched_controller.txt";
  ASSERT_TRUE(save_controller(controller(), path));
  const TrainedController loaded = load_controller(path);
  EXPECT_EQ(loaded.node.capacities_f, controller().node.capacities_f);
  EXPECT_THROW(load_controller("/no_such_file_xyz"), std::invalid_argument);
}

TEST(ControllerIo, RejectsSemanticallyInvalidNode) {
  // A blob that parses cleanly but decodes to an impossible node (v_high
  // below v_low) must be rejected by NodeConfig::validate, not loaded.
  std::string blob = serialize_controller(controller());
  const std::size_t start = blob.find("\nnode ");
  ASSERT_NE(start, std::string::npos);
  const std::size_t end = blob.find('\n', start + 1);
  ASSERT_NE(end, std::string::npos);
  blob.replace(start, end - start, "\nnode 1.8 0.9 0 0");
  try {
    deserialize_controller(blob);
    FAIL() << "deserialize_controller must reject v_high <= v_low";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("v_high"), std::string::npos);
  }
}

TEST(ControllerIo, RejectsCorruptInput) {
  EXPECT_THROW(deserialize_controller("garbage"), std::invalid_argument);
  std::string truncated = serialize_controller(controller());
  truncated.resize(truncated.size() / 3);
  EXPECT_THROW(deserialize_controller(truncated), std::invalid_argument);
}

}  // namespace
}  // namespace solsched::core
