#include "sched/optimal.hpp"

#include <gtest/gtest.h>

#include "../test_helpers.hpp"
#include "nvp/node_sim.hpp"
#include "sched/intra_task.hpp"
#include "sched/lsa_inter.hpp"

namespace solsched::sched {
namespace {

using test::small_grid;
using test::small_node;

TEST(Optimal, ZeroDmrWhenEnergyAbundant) {
  const auto grid = test::tiny_grid();
  const auto graph = test::indep3();
  const auto node = small_node(grid);
  solar::SolarTrace trace(grid);
  for (std::size_t f = 0; f < grid.total_slots(); ++f)
    trace.at_flat(f) = 0.2;
  OptimalScheduler opt;
  const auto r = nvp::simulate(graph, trace, opt, node);
  EXPECT_DOUBLE_EQ(r.overall_dmr(), 0.0);
  EXPECT_EQ(opt.planned_total_misses(), 0u);
}

TEST(Optimal, PlanCoversEveryPeriod) {
  const auto grid = test::tiny_grid();
  const auto graph = test::chain2();
  const auto node = small_node(grid);
  const auto gen = test::scaled_generator(grid);
  const auto trace = gen.generate_day(solar::DayKind::kPartlyCloudy, grid);
  OptimalScheduler opt;
  nvp::simulate(graph, trace, opt, node);
  EXPECT_EQ(opt.plan().size(), grid.total_periods());
  for (const auto& p : opt.plan()) {
    EXPECT_LT(p.cap_index, node.capacities_f.size());
    EXPECT_EQ(p.te.size(), graph.size());
  }
}

TEST(Optimal, BeatsOnlineBaselines) {
  const auto grid = small_grid();
  const auto graph = task::wam_benchmark();
  const auto node = small_node(grid);
  const auto gen = test::scaled_generator(grid, 31);
  const auto trace = gen.generate_days(2, small_grid());

  OptimalScheduler opt;
  LsaInterScheduler lsa;
  IntraTaskScheduler intra;
  const double dmr_opt = nvp::simulate(graph, trace, opt, node).overall_dmr();
  const double dmr_lsa = nvp::simulate(graph, trace, lsa, node).overall_dmr();
  const double dmr_intra =
      nvp::simulate(graph, trace, intra, node).overall_dmr();
  // Offline oracle with full knowledge is the upper bound (small slack for
  // bucket quantization).
  EXPECT_LE(dmr_opt, dmr_lsa + 0.01);
  EXPECT_LE(dmr_opt, dmr_intra + 0.01);
}

TEST(Optimal, RealizedCloseToPlanned) {
  const auto grid = small_grid();
  const auto graph = test::indep3();
  const auto node = small_node(grid);
  const auto gen = test::scaled_generator(grid, 13);
  const auto trace = gen.generate_day(solar::DayKind::kPartlyCloudy, grid);
  OptimalScheduler opt;
  const auto r = nvp::simulate(graph, trace, opt, node);
  const double planned_dmr =
      static_cast<double>(opt.planned_total_misses()) /
      static_cast<double>(grid.total_periods() * graph.size());
  // Execution scavenging can only improve on the plan; quantization can
  // cost a little.
  EXPECT_NEAR(r.overall_dmr(), planned_dmr, 0.08);
}

TEST(Optimal, LutPopulatedFromPlanStates) {
  const auto grid = test::tiny_grid();
  const auto graph = test::chain2();
  const auto node = small_node(grid);
  const auto gen = test::scaled_generator(grid);
  const auto trace = gen.generate_day(solar::DayKind::kClear, grid);
  OptimalScheduler opt;
  nvp::simulate(graph, trace, opt, node);
  EXPECT_GE(opt.lut().size(), grid.total_periods());
  for (const auto& e : opt.lut().entries())
    EXPECT_EQ(e.te.size(), graph.size());
}

TEST(Optimal, HorizonWindowsStillFeasible) {
  const auto grid = small_grid();
  const auto graph = test::indep3();
  const auto node = small_node(grid);
  const auto gen = test::scaled_generator(grid, 7);
  const auto trace = gen.generate_days(2, small_grid());

  OptimalConfig short_cfg;
  short_cfg.horizon_periods = 6;
  OptimalScheduler windowed(short_cfg);
  OptimalScheduler whole;
  const double dmr_windowed =
      nvp::simulate(graph, trace, windowed, node).overall_dmr();
  const double dmr_whole =
      nvp::simulate(graph, trace, whole, node).overall_dmr();
  // A longer horizon can only help (both noise-free here).
  EXPECT_LE(dmr_whole, dmr_windowed + 0.02);
}

TEST(Optimal, ForecastNoiseDegradesPlan) {
  const auto grid = small_grid();
  const auto graph = task::wam_benchmark();
  const auto node = small_node(grid);
  const auto gen = test::scaled_generator(grid, 23);
  const auto trace = gen.generate_days(3, small_grid());

  OptimalScheduler oracle;
  OptimalConfig noisy_cfg;
  noisy_cfg.forecast_noise = 6.0;  // Heavy error growth per lookahead day.
  OptimalScheduler noisy(noisy_cfg);
  const double dmr_oracle =
      nvp::simulate(graph, trace, oracle, node).overall_dmr();
  const double dmr_noisy =
      nvp::simulate(graph, trace, noisy, node).overall_dmr();
  EXPECT_LE(dmr_oracle, dmr_noisy + 1e-9);
}

TEST(Optimal, RejectsZeroBuckets) {
  OptimalConfig config;
  config.energy_buckets = 0;
  EXPECT_THROW(OptimalScheduler{config}, std::invalid_argument);
}

}  // namespace
}  // namespace solsched::sched
