// Unit tests for the proposed scheduler's greedy-bank capacitor selection
// (the DESIGN.md extension on top of Eq. 22): drain-the-fullest on empty,
// move-to-headroom on full-under-surplus.
#include <gtest/gtest.h>

#include "../test_helpers.hpp"
#include "ann/dbn.hpp"
#include "sched/proposed.hpp"

namespace solsched::sched {
namespace {

/// Hand-built model whose DBN is an untrained (but valid) network — the
/// decode path works regardless; these tests only exercise the selection
/// rules, which read the bank, not the DBN's capacitor vote.
ProposedModel tiny_model(std::size_t n_slots, std::size_t n_caps,
                         std::size_t n_tasks) {
  ProposedModel model;
  ann::DbnConfig config;
  config.hidden_sizes = {4};
  model.dbn = std::make_shared<ann::Dbn>(n_slots + n_caps + 1,
                                         n_caps + 1 + n_tasks, config);
  ann::Vector mins(n_slots + n_caps + 1, 0.0);
  ann::Vector maxs(n_slots + n_caps + 1, 1.0);
  model.input_norm.set_ranges(std::move(mins), std::move(maxs));
  model.capacities_f = std::vector<double>(n_caps, 0.0);
  for (std::size_t h = 0; h < n_caps; ++h)
    model.capacities_f[h] = 5.0 + 10.0 * static_cast<double>(h);
  model.n_slots = n_slots;
  model.n_tasks = n_tasks;
  return model;
}

nvp::PeriodContext make_ctx(const solar::TimeGrid& grid,
                            const task::TaskGraph& graph,
                            storage::CapacitorBank& bank) {
  nvp::PeriodContext ctx;
  static solar::TimeGrid grid_store;
  grid_store = grid;
  ctx.grid = &grid_store;
  ctx.graph = &graph;
  ctx.bank = &bank;
  ctx.last_period_solar_w.assign(grid.n_slots, 0.0);
  return ctx;
}

TEST(GreedyBank, DrainsFullestWhenSelectedEmpty) {
  const auto grid = test::tiny_grid();
  const auto graph = test::indep3();
  const auto model = tiny_model(grid.n_slots, 3, graph.size());
  storage::CapacitorBank bank(model.capacities_f,
                              storage::RegulatorModel::analytic_default(),
                              storage::LeakageModel{});
  bank.select(0);                      // Selected: empty.
  bank.at(2).set_usable_energy_j(40.0);  // Fullest: capacitor 2.

  ProposedConfig config;
  config.e_th_j = 5.0;
  ProposedScheduler policy(model, config);
  const auto plan = policy.begin_period(make_ctx(grid, graph, bank));
  ASSERT_TRUE(plan.select_cap.has_value());
  EXPECT_EQ(*plan.select_cap, 2u);
}

TEST(GreedyBank, NoSwitchWhenWholeBankEmptyAndDbnAgrees) {
  const auto grid = test::tiny_grid();
  const auto graph = test::indep3();
  const auto model = tiny_model(grid.n_slots, 3, graph.size());
  storage::CapacitorBank bank(model.capacities_f,
                              storage::RegulatorModel::analytic_default(),
                              storage::LeakageModel{});
  ProposedConfig config;
  config.e_th_j = 5.0;
  ProposedScheduler policy(model, config);
  const auto plan = policy.begin_period(make_ctx(grid, graph, bank));
  // Whole bank empty: falls back to the DBN pick, which may or may not be
  // the current capacitor — but must be a valid index if present.
  if (plan.select_cap) {
    EXPECT_LT(*plan.select_cap, bank.size());
  }
}

TEST(GreedyBank, StaysPutWhenChargedAndNotFull) {
  const auto grid = test::tiny_grid();
  const auto graph = test::indep3();
  const auto model = tiny_model(grid.n_slots, 3, graph.size());
  storage::CapacitorBank bank(model.capacities_f,
                              storage::RegulatorModel::analytic_default(),
                              storage::LeakageModel{});
  bank.select(1);
  bank.at(1).set_usable_energy_j(60.0);  // Charged, far from full (15 F).

  ProposedConfig config;
  config.e_th_j = 5.0;
  ProposedScheduler policy(model, config);
  const auto plan = policy.begin_period(make_ctx(grid, graph, bank));
  EXPECT_FALSE(plan.select_cap.has_value());
}

TEST(GreedyBank, MovesToHeadroomWhenFullUnderSurplus) {
  const auto grid = test::tiny_grid();
  const auto graph = test::indep3();
  const auto model = tiny_model(grid.n_slots, 3, graph.size());
  storage::CapacitorBank bank(model.capacities_f,
                              storage::RegulatorModel::analytic_default(),
                              storage::LeakageModel{});
  bank.select(0);                       // 5 F capacitor...
  bank.at(0).set_voltage(4.95);         // ...essentially full.

  ProposedConfig config;
  config.e_th_j = 1.0;
  config.fill_fraction = 0.12;
  ProposedScheduler policy(model, config);

  // Strong surplus signal: bright previous period (alpha << 1).
  auto ctx = make_ctx(grid, graph, bank);
  ctx.last_period_solar_w.assign(grid.n_slots, 0.09);
  const auto plan = policy.begin_period(ctx);
  if (policy.last_decision().alpha < 1.0) {
    ASSERT_TRUE(plan.select_cap.has_value());
    // The roomiest capacitor is the biggest, empty one.
    EXPECT_EQ(*plan.select_cap, 2u);
  }
}

TEST(GreedyBank, DisabledRestoresPaperRule) {
  const auto grid = test::tiny_grid();
  const auto graph = test::indep3();
  const auto model = tiny_model(grid.n_slots, 3, graph.size());
  storage::CapacitorBank bank(model.capacities_f,
                              storage::RegulatorModel::analytic_default(),
                              storage::LeakageModel{});
  bank.select(0);
  bank.at(0).set_voltage(4.95);           // Full.
  bank.at(2).set_usable_energy_j(40.0);   // Fullest elsewhere.

  ProposedConfig config;
  config.e_th_j = 1.0;
  config.greedy_bank = false;
  ProposedScheduler policy(model, config);
  auto ctx = make_ctx(grid, graph, bank);
  ctx.last_period_solar_w.assign(grid.n_slots, 0.09);
  // Pure Eq. 22: the selected capacitor holds plenty of energy, no switch,
  // regardless of fullness or surplus.
  const auto plan = policy.begin_period(ctx);
  EXPECT_FALSE(plan.select_cap.has_value());
}

}  // namespace
}  // namespace solsched::sched
