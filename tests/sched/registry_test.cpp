// Scheduler-registry zoo suite (ctest -L sched): every registered policy
// (a) round-trips id -> factory -> name(), (b) simulates bit-identically
// at 1 vs N threads, and (c) runs end to end through a campaign whose
// journal keys its rows by the canonical id; plus the drift test pinning
// the campaign scheduler axis to the registry contents.
#include "sched/registry.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "../test_helpers.hpp"
#include "campaign/runner.hpp"
#include "core/experiment.hpp"
#include "core/report.hpp"
#include "nvp/node_sim.hpp"
#include "task/benchmarks.hpp"
#include "util/thread_pool.hpp"

namespace solsched::sched {
namespace {

/// Every id a comparison can run without a trained controller.
std::vector<std::string> untrained_ids() {
  std::vector<std::string> out;
  for (const SchedulerInfo& info : Registry::global().entries())
    if (!info.needs_controller) out.push_back(info.id);
  return out;
}

TEST(Registry, RoundTripsIdFactoryName) {
  const Registry& registry = Registry::global();
  ASSERT_GE(registry.entries().size(), 10u);
  for (const SchedulerInfo& info : registry.entries()) {
    ASSERT_NE(registry.find(info.id), nullptr) << info.id;
    EXPECT_EQ(registry.find(info.id)->id, info.id);
    EXPECT_EQ(&registry.at(info.id), registry.find(info.id));
    if (info.needs_controller) {
      // Without a trained model the factory must refuse, not crash.
      EXPECT_THROW(info.factory(SchedulerContext{}), std::invalid_argument)
          << info.id;
      continue;
    }
    const auto policy = info.factory(SchedulerContext{});
    ASSERT_NE(policy, nullptr) << info.id;
    EXPECT_EQ(policy->name(), info.display_name) << info.id;
  }
  // The zoo additions key display == id, so journal rows and report tables
  // speak canonical ids for them.
  for (const char* id : {"ccedf", "laedf", "greedy", "dvfs-match"}) {
    const SchedulerInfo& info = Registry::global().at(id);
    EXPECT_EQ(info.display_name, info.id);
    EXPECT_FALSE(info.sized_bank);
  }
}

TEST(Registry, UnknownIdErrorListsKnownIds) {
  try {
    Registry::global().at("fifo");
    FAIL() << "at() accepted an unknown id";
  } catch (const std::out_of_range& e) {
    const std::string what = e.what();
    for (const std::string& id : Registry::global().ids())
      EXPECT_NE(what.find(id), std::string::npos) << id;
  }
  // The experiment runner validates before running anything.
  const auto grid = test::tiny_grid();
  const auto trace = test::scaled_generator(grid).generate_day(
      solar::DayKind::kPartlyCloudy, grid);
  core::ComparisonConfig config;
  config.scheduler_ids = {"inter", "fifo"};
  EXPECT_THROW(core::run_comparison(test::indep3(), trace,
                                    test::small_node(grid), nullptr, config),
               std::out_of_range);
}

TEST(Registry, ZooSimulatesBitIdenticallyAcrossThreadCounts) {
  const auto grid = test::tiny_grid(2);
  const auto gen = test::scaled_generator(grid, 77);
  const auto trace = gen.generate_days(2, grid);
  const auto node = test::small_node(grid);

  core::ComparisonConfig config;
  config.scheduler_ids = untrained_ids();  // Whole zoo, controller-free.
  config.dp.energy_buckets = 6;            // Keep the Optimal row tiny.

  const auto run_at = [&](std::size_t threads) {
    util::ThreadPool::set_global_threads(threads);
    return core::run_comparison(test::indep3(), trace, node, nullptr, config);
  };
  const auto serial = run_at(1);
  const auto parallel = run_at(4);
  util::ThreadPool::set_global_threads(
      util::ThreadPool::thread_count_from_env());

  ASSERT_EQ(serial.size(), config.scheduler_ids.size());
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t r = 0; r < serial.size(); ++r) {
    EXPECT_EQ(serial[r].id, parallel[r].id);
    EXPECT_EQ(serial[r].algo, parallel[r].algo);
    EXPECT_EQ(serial[r].dmr, parallel[r].dmr) << serial[r].id;
    EXPECT_EQ(serial[r].brownouts, parallel[r].brownouts) << serial[r].id;
    // Full per-period bit-identity, not just the headline numbers.
    EXPECT_EQ(core::to_csv(serial[r].sim), core::to_csv(parallel[r].sim))
        << serial[r].id;
  }
}

TEST(Registry, ReusedInstanceMatchesFreshAcrossTracesAndGraphs) {
  // Policies keep their slot-path scratch as members (DESIGN.md §9), so one
  // instance run over different traces and graphs — more NVPs, then fewer,
  // then more again — must reproduce a fresh instance's records exactly.
  const auto grid = test::small_grid();
  const auto gen = test::scaled_generator(grid, 9);
  const auto sunny = gen.generate_day(solar::DayKind::kClear, grid);
  const auto cloudy = gen.generate_day(solar::DayKind::kPartlyCloudy, grid);
  const auto node = test::small_node(grid);
  const task::TaskGraph wam = task::wam_benchmark();
  const task::TaskGraph small = test::indep3();
  ASSERT_GT(wam.nvp_count(), small.nvp_count());
  const std::vector<std::pair<const task::TaskGraph*, const solar::SolarTrace*>>
      runs = {{&wam, &sunny}, {&small, &cloudy}, {&wam, &cloudy}};

  SchedulerContext ctx;
  ctx.dp.energy_buckets = 6;  // Keep the Optimal row's DP small.
  for (const SchedulerInfo& info : Registry::global().entries()) {
    if (info.needs_controller) continue;
    const auto reused = info.factory(ctx);
    for (std::size_t r = 0; r < runs.size(); ++r) {
      const auto& [graph, trace] = runs[r];
      const auto fresh = info.factory(ctx);
      EXPECT_EQ(core::to_csv(nvp::simulate(*graph, *trace, *reused, node)),
                core::to_csv(nvp::simulate(*graph, *trace, *fresh, node)))
          << info.id << " run " << r;
    }
  }
}

TEST(Registry, RowsComeBackInRegistrationOrder) {
  const auto grid = test::tiny_grid();
  const auto trace = test::scaled_generator(grid, 5).generate_day(
      solar::DayKind::kClear, grid);
  core::ComparisonConfig config;
  // Deliberately scrambled; rows must come back in registration order so
  // journals are insensitive to how a spec lists its axis.
  config.scheduler_ids = {"greedy", "laedf", "ccedf", "edf"};
  const auto rows = core::run_comparison(test::chain2(), trace,
                                         test::small_node(grid), nullptr,
                                         config);
  ASSERT_EQ(rows.size(), 4u);
  EXPECT_EQ(rows[0].id, "edf");
  EXPECT_EQ(rows[1].id, "ccedf");
  EXPECT_EQ(rows[2].id, "laedf");
  EXPECT_EQ(rows[3].id, "greedy");
  for (const auto& row : rows) {
    EXPECT_GE(row.dmr, 0.0);
    EXPECT_LE(row.dmr, 1.0);
  }
}

TEST(Registry, CampaignAxisRunsZooEndToEnd) {
  const std::string dir = ::testing::TempDir() + "/registry_zoo_campaign";
  std::filesystem::remove_all(dir);

  campaign::CampaignConfig config;
  config.spec = campaign::CampaignSpec::parse(
      "workloads=wam;seeds=1,2;schedulers=ccedf,laedf,greedy,dvfs-match;"
      "periods=12;slots=10;days=1");
  config.dir = dir;
  const campaign::CampaignResult result = campaign::run_campaign(config);
  ASSERT_TRUE(result.finished);
  EXPECT_EQ(result.trainings, 0u);  // Nothing in the zoo needs a controller.
  ASSERT_EQ(result.records.size(), 2u);
  for (const auto& record : result.records) {
    ASSERT_EQ(record.rows.size(), 4u);
    EXPECT_EQ(record.rows[0].algo, "ccedf");
    EXPECT_EQ(record.rows[1].algo, "laedf");
    EXPECT_EQ(record.rows[2].algo, "greedy");
    EXPECT_EQ(record.rows[3].algo, "dvfs-match");
  }
  // The journal on disk keys the rows by canonical id too.
  std::ifstream journal(dir + "/journal.jsonl");
  ASSERT_TRUE(journal.is_open());
  std::stringstream text;
  text << journal.rdbuf();
  for (const char* id : {"ccedf", "laedf", "greedy", "dvfs-match"})
    EXPECT_NE(text.str().find("\"algo\": \"" + std::string(id) + "\""),
              std::string::npos)
        << id;
}

TEST(Registry, CampaignSchedulerAxisMatchesRegistry) {
  // Drift test: the spec's scheduler vocabulary IS the registry — every
  // registered id parses, and the full registry round-trips through the
  // axis unchanged.
  const std::vector<std::string> ids = Registry::global().ids();
  std::string axis;
  for (const std::string& id : ids) {
    if (!axis.empty()) axis += ',';
    axis += id;
  }
  const auto spec = campaign::CampaignSpec::parse("schedulers=" + axis);
  EXPECT_EQ(spec.schedulers, ids);

  // Unknown names are self-diagnosing: the error lists the registry ids.
  try {
    campaign::CampaignSpec::parse("schedulers=fifo");
    FAIL() << "parse accepted an unknown scheduler";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    for (const std::string& id : ids)
      EXPECT_NE(what.find(id), std::string::npos) << id;
  }
}

}  // namespace
}  // namespace solsched::sched
