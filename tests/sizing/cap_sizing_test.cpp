#include "sizing/cap_sizing.hpp"

#include <gtest/gtest.h>

#include "../test_helpers.hpp"

namespace solsched::sizing {
namespace {

SizingConfig fast_config() {
  SizingConfig config;
  config.regulators = storage::RegulatorModel::analytic_default();
  return config;
}

TEST(AsapLoad, RespectsNvpSerialization) {
  const auto graph = test::indep3();
  const auto load = asap_period_load_w(graph, 10, 30.0);
  ASSERT_EQ(load.size(), 10u);
  // Two NVPs: the instantaneous load can never exceed the two most
  // power-hungry co-runnable tasks (0.015 + 0.025).
  for (double l : load) EXPECT_LE(l, 0.041);
  // Total energy delivered equals the benchmark demand.
  double energy = 0.0;
  for (double l : load) energy += l * 30.0;
  EXPECT_NEAR(energy, graph.total_energy_j(), 1e-9);
}

TEST(AsapLoad, ChainRunsSequentially) {
  const auto graph = test::chain2();
  const auto load = asap_period_load_w(graph, 10, 30.0);
  // One NVP: power is one task at a time; first 2 slots task0 (20 mW),
  // then task1 (30 mW) for 2 slots, then idle.
  EXPECT_NEAR(load[0], 0.02, 1e-12);
  EXPECT_NEAR(load[1], 0.02, 1e-12);
  EXPECT_NEAR(load[2], 0.03, 1e-12);
  EXPECT_NEAR(load[3], 0.03, 1e-12);
  EXPECT_NEAR(load[4], 0.0, 1e-12);
}

TEST(MigrationDeltas, SignsFollowSolarVsLoad) {
  const auto grid = test::small_grid();
  const auto gen = test::scaled_generator(grid);
  const auto trace = gen.generate_day(solar::DayKind::kClear, grid);
  const auto deltas = day_migration_deltas_j(test::indep3(), trace, 0,
                                             storage::PmuConfig{});
  ASSERT_EQ(deltas.size(), grid.slots_per_day());
  // Night slots (start of the shrunk day) are pure deficit.
  EXPECT_LT(deltas.front(), 0.0);
  // Some midday slot should be in surplus on a clear day.
  const double peak = *std::max_element(deltas.begin(), deltas.end());
  EXPECT_GT(peak, 0.0);
}

TEST(MigrationLoss, PositiveAndFiniteAcrossCapacities) {
  const auto grid = test::small_grid();
  const auto gen = test::scaled_generator(grid);
  const auto trace = gen.generate_day(solar::DayKind::kPartlyCloudy, grid);
  const auto deltas = day_migration_deltas_j(test::indep3(), trace, 0,
                                             storage::PmuConfig{});
  const auto config = fast_config();
  for (double c : {0.5, 5.0, 50.0, 120.0}) {
    const double loss = migration_loss_j(deltas, c, config, grid.dt_s);
    EXPECT_GT(loss, 0.0) << c;
    EXPECT_LT(loss, 1e4) << c;
  }
}

TEST(OptimalCapacity, WithinSearchBounds) {
  const auto grid = test::small_grid();
  const auto gen = test::scaled_generator(grid, 9);
  const auto trace = gen.generate_day(solar::DayKind::kClear, grid);
  const auto deltas = day_migration_deltas_j(test::indep3(), trace, 0,
                                             storage::PmuConfig{});
  const auto config = fast_config();
  const double c_opt = optimal_capacity_f(deltas, config, grid.dt_s);
  // The search range is [0.5, 120] F.
  EXPECT_GE(c_opt, 0.5);
  EXPECT_LE(c_opt, 120.0);
  // The optimum beats the extremes.
  const double loss_opt = migration_loss_j(deltas, c_opt, config, grid.dt_s);
  const double loss_min = migration_loss_j(deltas, 0.5, config, grid.dt_s);
  const double loss_max = migration_loss_j(deltas, 120.0, config, grid.dt_s);
  EXPECT_LE(loss_opt, loss_min + 1e-6);
  EXPECT_LE(loss_opt, loss_max + 1e-6);
}

TEST(SizeCapacitors, ProducesHClusters) {
  const auto grid = test::small_grid();
  const auto gen = test::scaled_generator(grid, 11);
  const auto trace = gen.generate_days(5, grid, solar::DayKind::kClear);
  const SizingResult r =
      size_capacitors(test::indep3(), trace, 3, fast_config());
  EXPECT_EQ(r.daily_optimal_f.size(), 5u);
  EXPECT_EQ(r.daily_loss_j.size(), 5u);
  EXPECT_LE(r.capacities_f.size(), 3u);
  EXPECT_EQ(r.day_labels.size(), 5u);
  // Capacities ascend (k-means canonical order).
  for (std::size_t i = 1; i < r.capacities_f.size(); ++i)
    EXPECT_LE(r.capacities_f[i - 1], r.capacities_f[i]);
}

TEST(SizeCapacitors, DiverseWeatherSpreadsOptima) {
  const auto grid = test::small_grid();
  const auto gen = test::scaled_generator(grid, 13);
  const auto trace = gen.generate_days(8, grid, solar::DayKind::kRainy);
  const SizingResult r =
      size_capacitors(test::indep3(), trace, 4, fast_config());
  // Mixed weather should produce a nontrivial range of daily optima.
  const double lo =
      *std::min_element(r.daily_optimal_f.begin(), r.daily_optimal_f.end());
  const double hi =
      *std::max_element(r.daily_optimal_f.begin(), r.daily_optimal_f.end());
  EXPECT_GT(hi / lo, 1.05);
}

}  // namespace
}  // namespace solsched::sizing
