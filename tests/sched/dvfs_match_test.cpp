// DVFS load matcher ("dvfs-match") run through nvp::simulate: behaviour on
// hand-built workloads, energy conservation, and the bench/dvfs_extension
// grid pinned at full precision.
#include "sched/dvfs_match.hpp"

#include <gtest/gtest.h>

#include "../test_helpers.hpp"
#include "nvp/node_sim.hpp"
#include "sched/registry.hpp"
#include "task/benchmarks.hpp"

namespace solsched::sched {
namespace {

solar::SolarTrace flat(const solar::TimeGrid& grid, double power_w) {
  solar::SolarTrace t(grid);
  for (std::size_t f = 0; f < grid.total_slots(); ++f) t.at_flat(f) = power_w;
  return t;
}

nvp::NodeConfig on_off_node(const solar::TimeGrid& grid) {
  nvp::NodeConfig node = test::small_node(grid);
  node.dvfs.levels = {1.0};
  return node;
}

TEST(DvfsSim, AbundantSolarZeroDmr) {
  const auto grid = test::small_grid();
  DvfsLoadMatcher policy;
  const auto r = nvp::simulate(test::indep3(), flat(grid, 0.2), policy,
                               test::small_node(grid));
  EXPECT_DOUBLE_EQ(r.overall_dmr(), 0.0);
}

TEST(DvfsSim, OnOffSpecialCaseMatchesConcept) {
  // levels = {1.0} reduces DVFS to plain on/off load matching; the run must
  // still satisfy all invariants and complete everything with full solar.
  const auto grid = test::small_grid();
  DvfsLoadMatcher policy;
  const auto r =
      nvp::simulate(test::indep3(), flat(grid, 0.2), policy, on_off_node(grid));
  EXPECT_DOUBLE_EQ(r.overall_dmr(), 0.0);
}

TEST(DvfsSim, EnergyConservation) {
  const auto grid = test::small_grid();
  const auto gen = test::scaled_generator(grid, 111);
  const auto trace = gen.generate_day(solar::DayKind::kPartlyCloudy, grid);
  DvfsLoadMatcher policy;
  auto node = test::small_node(grid);
  node.initial_usable_j = 8.0;
  const auto r = nvp::simulate(test::indep3(), trace, policy, node);
  double served = 0.0, loss = 0.0, spilled = 0.0;
  for (const auto& p : r.periods) {
    served += p.load_served_j;
    loss += p.conversion_loss_j + p.leakage_loss_j;
    spilled += p.spilled_j;
  }
  const double delta = r.final_bank_energy_j - r.initial_bank_energy_j;
  EXPECT_NEAR(r.total_solar_j(), served + loss + spilled + delta, 1e-6);
}

TEST(DvfsSim, ScalesDownUnderPartialSolar) {
  // Solar covers ~40% of the full-speed load of a single long task: the
  // matcher should run at reduced frequency instead of idling, making
  // steady progress without touching (empty) storage.
  std::vector<task::Task> tasks = {{0, "t", 600.0, 300.0, 0.030, 0}};
  const task::TaskGraph graph("single", std::move(tasks), {});
  const auto grid = test::small_grid();
  DvfsLoadMatcher policy;
  // 14 mW solar: full speed needs 30 mW; half speed needs 11.6 mW.
  const auto r =
      nvp::simulate(graph, flat(grid, 0.014), policy, test::small_node(grid));
  // With half-speed execution available, the 300 s task (needing 600 s at
  // 0.5x) can still complete within its 600 s deadline.
  EXPECT_LT(r.overall_dmr(), 0.2);
  // The on/off node cannot: 30 mW > 12.9 mW usable, every slot browns out
  // or idles until the deadline forces doomed full-power attempts.
  DvfsLoadMatcher policy2;
  const auto r2 =
      nvp::simulate(graph, flat(grid, 0.014), policy2, on_off_node(grid));
  EXPECT_GT(r2.overall_dmr(), r.overall_dmr());
}

TEST(DvfsSim, ForcedTaskRunsAtRequiredRate) {
  // A task with zero slack must run immediately even in the dark, provided
  // storage can power it.
  std::vector<task::Task> tasks = {{0, "urgent", 60.0, 60.0, 0.010, 0}};
  const task::TaskGraph graph("urgent", std::move(tasks), {});
  const auto grid = test::tiny_grid();
  auto node = test::small_node(grid);
  node.initial_usable_j = 50.0;
  DvfsLoadMatcher policy;
  const auto r = nvp::simulate(graph, solar::SolarTrace(grid), policy, node);
  // First period completes from storage (deadline equals exec time: full
  // speed required from slot 0).
  EXPECT_DOUBLE_EQ(r.periods.front().dmr, 0.0);
}

TEST(DvfsMatch, PinsDvfsExtensionGrid) {
  // bench/dvfs_extension's table at full precision: ECG then WAM, the four
  // representative paper days, columns on/off, 70 % and 20 % dynamic power,
  // on the single 40 F paper node.
  const double expected[2][4][3] = {
      {{0.3344907407407407, 0.31828703703703703, 0.34143518518518523},
       {0.36921296296296297, 0.35185185185185186, 0.37500000000000006},
       {0.57870370370370372, 0.51736111111111116, 0.61342592592592604},
       {0.84953703703703698, 0.75810185185185186, 0.87037037037037024}},
      {{0.36458333333333331, 0.34809027777777779, 0.37586805555555558},
       {0.40538194444444442, 0.38802083333333331, 0.42708333333333331},
       {0.64756944444444442, 0.57552083333333337, 0.69791666666666663},
       {0.89236111111111116, 0.81944444444444442, 0.8984375}}};

  const solar::TimeGrid grid = solar::default_grid();
  solar::TraceGeneratorConfig gen_config;
  gen_config.seed = 2015;
  const auto days =
      solar::TraceGenerator(gen_config).four_representative_days(grid);
  nvp::DvfsModel on_off;
  on_off.levels = {1.0};
  const nvp::DvfsModel scaled;
  nvp::DvfsModel static_heavy;
  static_heavy.dynamic_fraction = 0.2;

  const task::TaskGraph graphs[2] = {task::ecg_benchmark(),
                                     task::wam_benchmark()};
  for (std::size_t g = 0; g < 2; ++g) {
    for (std::size_t d = 0; d < 4; ++d) {
      nvp::NodeConfig node;
      node.grid = grid;
      node.capacities_f = {40.0};
      const nvp::DvfsModel* columns[3] = {&on_off, &scaled, &static_heavy};
      for (std::size_t c = 0; c < 3; ++c) {
        node.dvfs = *columns[c];
        const auto policy = make_scheduler("dvfs-match", {});
        const auto r = nvp::simulate(graphs[g], days[d], *policy, node);
        EXPECT_EQ(r.overall_dmr(), expected[g][d][c])
            << graphs[g].name() << " day " << d << " column " << c;
      }
    }
  }
}

}  // namespace
}  // namespace solsched::sched
