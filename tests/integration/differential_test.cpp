// Differential and statistical property sweeps.
#include <gtest/gtest.h>

#include <tuple>

#include "../test_helpers.hpp"
#include "nvp/node_sim.hpp"
#include "sched/intra_task.hpp"
#include "sched/lsa_inter.hpp"
#include "sched/optimal.hpp"
#include "storage/migration.hpp"
#include "util/stats.hpp"

namespace solsched {
namespace {

// ---------------------------------------------------------------------
// Differential: the coarse slot-level migration model must track the
// fine-timestep reference across the whole (capacity, quantity, duration)
// grid — not just Table 2's four points.
// ---------------------------------------------------------------------

using MigParam = std::tuple<double /*cap*/, double /*Q*/, double /*T_min*/>;

class MigrationDifferential : public ::testing::TestWithParam<MigParam> {};

TEST_P(MigrationDifferential, CoarseTracksFine) {
  const auto [cap, quantity, minutes] = GetParam();
  const auto reg = storage::RegulatorModel::fitted_default();
  const auto leak = storage::LeakageModel::fitted_default();
  const storage::MigrationPattern pattern{quantity, minutes * 60.0, 0.25,
                                          0.25};
  const double model =
      storage::migrate_coarse(cap, reg, leak, pattern).efficiency;
  const double fine = storage::migrate_fine(cap, reg, pattern).efficiency;
  // Efficiencies are in [0, 1); absolute disagreement stays under 8 points
  // across the grid (relative error blows up when both are tiny, absolute
  // does not; the worst corner is a long hold in a small capacitor, the
  // same leakage-dominated regime where Table 2's 1 F error peaks).
  EXPECT_NEAR(model, fine, 0.08)
      << cap << "F " << quantity << "J " << minutes << "min";
}

INSTANTIATE_TEST_SUITE_P(
    Grid, MigrationDifferential,
    ::testing::Combine(::testing::Values(1.0, 5.0, 20.0, 80.0),
                       ::testing::Values(3.0, 12.0, 40.0),
                       ::testing::Values(30.0, 120.0, 480.0)),
    [](const ::testing::TestParamInfo<MigParam>& info) {
      std::string name = "c";
      name += std::to_string(static_cast<int>(std::get<0>(info.param)));
      name += "_q";
      name += std::to_string(static_cast<int>(std::get<1>(info.param)));
      name += "_t";
      name += std::to_string(static_cast<int>(std::get<2>(info.param)));
      return name;
    });

// ---------------------------------------------------------------------
// Statistics: generated weather archetypes have the right energy bands
// and stay inside the panel's physical ceiling, for a range of seeds.
// ---------------------------------------------------------------------

class TraceStats
    : public ::testing::TestWithParam<std::tuple<solar::DayKind, int>> {};

TEST_P(TraceStats, ArchetypeEnergyBands) {
  const auto [kind, seed] = GetParam();
  const auto grid = solar::default_grid();
  solar::TraceGeneratorConfig config;
  config.seed = static_cast<std::uint64_t>(seed);
  const auto day = solar::TraceGenerator(config).generate_day(kind, grid);

  const double energy = day.total_energy_j();
  double lo = 0.0, hi = 0.0;
  switch (kind) {
    case solar::DayKind::kClear: lo = 1800; hi = 3000; break;
    case solar::DayKind::kPartlyCloudy: lo = 800; hi = 2400; break;
    case solar::DayKind::kOvercast: lo = 300; hi = 1400; break;
    case solar::DayKind::kRainy: lo = 80; hi = 700; break;
  }
  EXPECT_GE(energy, lo) << solar::to_string(kind) << " seed " << seed;
  EXPECT_LE(energy, hi) << solar::to_string(kind) << " seed " << seed;
  EXPECT_LE(day.peak_power_w(), 0.0945 + 1e-9);
  // Night (00:00-04:00) is dark in every archetype.
  for (std::size_t f = 0; f < 4 * 120; ++f)
    ASSERT_DOUBLE_EQ(day.at_flat(f), 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Archetypes, TraceStats,
    ::testing::Combine(::testing::Values(solar::DayKind::kClear,
                                         solar::DayKind::kPartlyCloudy,
                                         solar::DayKind::kOvercast,
                                         solar::DayKind::kRainy),
                       ::testing::Values(1, 2, 3, 7, 19)),
    [](const ::testing::TestParamInfo<std::tuple<solar::DayKind, int>>&
           info) {
      return solar::to_string(std::get<0>(info.param)) + "_s" +
             std::to_string(std::get<1>(info.param));
    });

// ---------------------------------------------------------------------
// Determinism: two identical simulations produce identical results,
// period by period, for every policy kind.
// ---------------------------------------------------------------------

template <typename Policy>
void expect_deterministic() {
  const auto grid = test::small_grid();
  const auto gen = test::scaled_generator(grid, 311);
  const auto trace = gen.generate_day(solar::DayKind::kPartlyCloudy, grid);
  const auto node = test::small_node(grid);
  const auto graph = task::ecg_benchmark();

  Policy p1, p2;
  const auto r1 = nvp::simulate(graph, trace, p1, node);
  const auto r2 = nvp::simulate(graph, trace, p2, node);
  ASSERT_EQ(r1.periods.size(), r2.periods.size());
  for (std::size_t i = 0; i < r1.periods.size(); ++i) {
    EXPECT_DOUBLE_EQ(r1.periods[i].dmr, r2.periods[i].dmr) << i;
    EXPECT_DOUBLE_EQ(r1.periods[i].load_served_j,
                     r2.periods[i].load_served_j)
        << i;
    EXPECT_EQ(r1.periods[i].cap_index, r2.periods[i].cap_index) << i;
  }
}

TEST(Determinism, LsaInter) { expect_deterministic<sched::LsaInterScheduler>(); }
TEST(Determinism, IntraTask) {
  expect_deterministic<sched::IntraTaskScheduler>();
}
TEST(Determinism, Optimal) { expect_deterministic<sched::OptimalScheduler>(); }

// ---------------------------------------------------------------------
// Cross-policy sanity: total served energy never exceeds what the physics
// could possibly deliver (solar through the direct channel + initial
// storage through the output regulator).
// ---------------------------------------------------------------------

TEST(PhysicalBounds, ServedEnergyBounded) {
  const auto grid = test::small_grid();
  const auto gen = test::scaled_generator(grid, 313);
  const auto trace = gen.generate_day(solar::DayKind::kClear, grid);
  auto node = test::small_node(grid);
  node.initial_usable_j = 30.0;
  const auto graph = task::wam_benchmark();

  sched::OptimalScheduler policy;
  const auto r = nvp::simulate(graph, trace, policy, node);
  const double ceiling =
      trace.total_energy_j() * node.pmu.direct_eta + node.initial_usable_j;
  EXPECT_LE(r.total_served_j(), ceiling + 1e-6);
}

}  // namespace
}  // namespace solsched
