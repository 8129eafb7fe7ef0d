#include "nvp/node_sim.hpp"

#include <gtest/gtest.h>

#include <limits>

#include "../test_helpers.hpp"
#include "sched/asap.hpp"
#include "sched/dvfs_match.hpp"
#include "sched/edf.hpp"

namespace solsched::nvp {
namespace {

using solsched::test::scaled_generator;
using solsched::test::small_grid;
using solsched::test::small_node;

solar::SolarTrace bright_trace(const solar::TimeGrid& grid, double power_w) {
  solar::SolarTrace t(grid);
  for (std::size_t f = 0; f < grid.total_slots(); ++f) t.at_flat(f) = power_w;
  return t;
}

TEST(NodeConfigValidate, AggregatesEveryFinding) {
  NodeConfig bad;
  bad.grid = solar::TimeGrid{0, 12, 10, -1.0};  // Two grid findings.
  bad.capacities_f = {5.0, -2.0};               // One capacitor finding.
  bad.v_high = bad.v_low;                       // One voltage finding.
  bad.backup_energy_j = -0.1;                   // One fault-model finding.
  const auto findings = bad.findings();
  EXPECT_GE(findings.size(), 5u);
  try {
    bad.validate();
    FAIL() << "validate() must throw";
  } catch (const std::invalid_argument& e) {
    // The exception carries every finding, not just the first.
    const std::string what = e.what();
    EXPECT_NE(what.find("findings"), std::string::npos);
    for (const auto& f : findings)
      EXPECT_NE(what.find(f), std::string::npos) << f;
  }
}

TEST(NodeConfigValidate, DefaultTestNodeIsClean) {
  EXPECT_TRUE(small_node(small_grid()).findings().empty());
}

TEST(NodeSim, RejectsInvalidConfigAtEntry) {
  const auto grid = small_grid();
  NodeConfig bad = small_node(grid);
  bad.capacities_f.clear();
  sched::AsapScheduler policy;
  EXPECT_THROW(
      simulate(test::indep3(), bright_trace(grid, 0.2), policy, bad),
      std::invalid_argument);
}

// --- DVFS model (NodeConfig::dvfs) ---------------------------------------

TEST(DvfsModel, PowerAndEnergyScaling) {
  const DvfsModel model;
  EXPECT_DOUBLE_EQ(model.power_scale(1.0), 1.0);
  // Half speed: 0.7 * 0.125 + 0.3 = 0.3875 of full power...
  EXPECT_NEAR(model.power_scale(0.5), 0.3875, 1e-12);
  // ...and 0.775x the energy per unit work: with the dynamic term
  // dominating, slowing down saves energy as well as power.
  EXPECT_NEAR(model.energy_scale(0.5), 0.775, 1e-12);
  EXPECT_LT(model.energy_scale(0.5), model.energy_scale(1.0));
  // With a purely static profile the trade reverses: half speed doubles
  // the energy per unit of work.
  DvfsModel static_only;
  static_only.dynamic_fraction = 0.0;
  EXPECT_NEAR(static_only.energy_scale(0.5), 2.0, 1e-12);
}

TEST(DvfsModel, Validation) {
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  // Findings of a clean node whose DVFS model is replaced; each one must
  // name the dvfs field it is about.
  const auto dvfs_findings = [](std::vector<double> levels,
                                double dynamic_fraction) {
    NodeConfig node = small_node(small_grid());
    node.dvfs.levels = std::move(levels);
    node.dvfs.dynamic_fraction = dynamic_fraction;
    const auto found = node.findings();
    for (const auto& f : found) EXPECT_EQ(f.rfind("dvfs.", 0), 0u) << f;
    return found.size();
  };
  EXPECT_EQ(dvfs_findings({0.5, 0.75, 1.0}, 0.7), 0u);
  EXPECT_EQ(dvfs_findings({1.0}, 0.0), 0u);
  EXPECT_EQ(dvfs_findings({0.25, 1.0}, 1.0), 0u);

  const std::vector<std::vector<double>> bad_levels = {
      {},                // empty
      {1.0, 0.5},        // unsorted
      {0.5, 0.5, 1.0},   // not strictly ascending
      {0.5, 1.5},        // overclock
      {0.0, 1.0},        // zero speed
      {kNan},            // NaN alone: every comparison is false
      {kNan, 0.5},       // NaN first: 0.5 compares unordered with it
      {0.5, kNan},
      {0.5, kInf},
      {-kInf, 1.0},
  };
  for (const auto& levels : bad_levels)
    EXPECT_GT(dvfs_findings(levels, 0.7), 0u) << levels.size() << " levels";
  for (double dynamic : {kNan, kInf, -kInf, -0.1, 1.5})
    EXPECT_GT(dvfs_findings({0.5, 1.0}, dynamic), 0u) << dynamic;
}

TEST(DvfsSim, RejectsInvalidModel) {
  // A bad DVFS model fails at simulate entry, before any slot runs.
  const auto grid = test::tiny_grid();
  for (const std::vector<double>& levels :
       {std::vector<double>{},
        std::vector<double>{std::numeric_limits<double>::quiet_NaN(), 0.5}}) {
    NodeConfig bad = small_node(grid);
    bad.dvfs.levels = levels;
    sched::DvfsLoadMatcher policy;
    EXPECT_THROW(simulate(test::indep3(), bright_trace(grid, 0.1), policy, bad),
                 std::invalid_argument)
        << levels.size();
  }
}

TEST(NodeSim, AbundantEnergyZeroDmr) {
  const auto grid = small_grid();
  const auto graph = test::indep3();
  NodeConfig node = small_node(grid);
  sched::AsapScheduler policy;
  const SimResult r =
      simulate(graph, bright_trace(grid, 0.2), policy, node);
  EXPECT_DOUBLE_EQ(r.overall_dmr(), 0.0);
  EXPECT_EQ(r.total_brownouts(), 0u);
  EXPECT_EQ(r.periods.size(), grid.total_periods());
}

TEST(NodeSim, NoEnergyAllMiss) {
  const auto grid = small_grid();
  const auto graph = test::indep3();
  NodeConfig node = small_node(grid);
  sched::AsapScheduler policy;
  const SimResult r = simulate(graph, solar::SolarTrace(grid), policy, node);
  EXPECT_DOUBLE_EQ(r.overall_dmr(), 1.0);
  EXPECT_DOUBLE_EQ(r.energy_utilization(), 0.0);
}

TEST(NodeSim, InitialStorageCoversSomePeriods) {
  const auto grid = small_grid();
  const auto graph = test::indep3();
  NodeConfig node = small_node(grid);
  node.initial_usable_j = 20.0;  // Several periods' worth of load.
  sched::EdfScheduler policy;
  const SimResult r = simulate(graph, solar::SolarTrace(grid), policy, node);
  EXPECT_LT(r.overall_dmr(), 1.0);
  EXPECT_GT(r.overall_dmr(), 0.0);
  // Early periods complete, later ones starve.
  EXPECT_LT(r.periods.front().dmr, r.periods.back().dmr);
}

TEST(NodeSim, PeriodRecordsAccountSolar) {
  const auto grid = small_grid();
  const auto graph = test::indep3();
  NodeConfig node = small_node(grid);
  sched::AsapScheduler policy;
  const auto trace = bright_trace(grid, 0.05);
  const SimResult r = simulate(graph, trace, policy, node);
  EXPECT_NEAR(r.total_solar_j(), trace.total_energy_j(), 1e-6);
}

TEST(NodeSim, DayDmrPartitionsOverall) {
  const auto grid = small_grid(2);
  const auto graph = test::indep3();
  NodeConfig node = small_node(grid);
  const auto gen = scaled_generator(grid);
  const auto trace = gen.generate_days(2, small_grid());
  sched::EdfScheduler policy;
  const SimResult r = simulate(graph, trace, policy, node);
  const double combined = 0.5 * (r.day_dmr(0) + r.day_dmr(1));
  EXPECT_NEAR(combined, r.overall_dmr(), 1e-9);
}

// --- Constraint enforcement -------------------------------------------

class RogueScheduler final : public Scheduler {
 public:
  enum class Mode { kUnknownTask, kDuplicate, kNvpConflict, kNotReady,
                    kOutsideTe, kBadTeSize, kBadLevel, kFrequencyCount };
  explicit RogueScheduler(Mode mode) : mode_(mode) {}
  std::string name() const override { return "Rogue"; }

  PeriodPlan begin_period(const PeriodContext& ctx) override {
    PeriodPlan plan;
    if (mode_ == Mode::kOutsideTe)
      plan.tasks_enabled = std::vector<bool>(ctx.graph->size(), false);
    if (mode_ == Mode::kBadTeSize) plan.tasks_enabled = {true};
    return plan;
  }

  std::vector<std::size_t> schedule_slot(const SlotContext& ctx) override {
    switch (mode_) {
      case Mode::kUnknownTask: return {ctx.graph->size() + 3};
      case Mode::kDuplicate: return {0, 0};
      case Mode::kNvpConflict: return {0, 2};  // indep3: both on NVP 0.
      case Mode::kNotReady: return {ctx.graph->size() == 1 ? 0u : 1u};
      case Mode::kOutsideTe: return {0};
      case Mode::kBadTeSize: return {};
      case Mode::kBadLevel:  // 0.37 is not one of the node's dvfs.levels.
        ctx.frequencies->push_back(0.37);
        return {0};
      case Mode::kFrequencyCount:  // Two levels for one chosen task.
        ctx.frequencies->assign({1.0, 1.0});
        return {0};
    }
    return {};
  }

 private:
  Mode mode_;
};

class ChainScheduler final : public Scheduler {
 public:
  std::string name() const override { return "Chain"; }
  PeriodPlan begin_period(const PeriodContext&) override { return {}; }
  std::vector<std::size_t> schedule_slot(const SlotContext& ctx) override {
    // Tries to run the dependent task first — must be rejected.
    return {ctx.state->completed(0) ? 0u : 1u};
  }
};

TEST(NodeSimValidation, RejectsConstraintViolations) {
  const auto grid = test::tiny_grid();
  const auto graph = test::indep3();
  NodeConfig node = small_node(grid);
  const auto trace = bright_trace(grid, 0.2);

  for (auto mode : {RogueScheduler::Mode::kUnknownTask,
                    RogueScheduler::Mode::kDuplicate,
                    RogueScheduler::Mode::kNvpConflict,
                    RogueScheduler::Mode::kOutsideTe,
                    RogueScheduler::Mode::kBadTeSize}) {
    RogueScheduler rogue(mode);
    EXPECT_THROW(simulate(graph, trace, rogue, node), std::logic_error)
        << static_cast<int>(mode);
  }
}

TEST(DvfsSim, ValidatesActions) {
  // Actions carrying frequency levels go through the same validator as
  // on/off ones: a bad task or an NVP conflict is rejected, and so is a
  // level outside dvfs.levels or a level list that does not match the
  // chosen tasks one-to-one.
  const auto grid = test::tiny_grid();
  NodeConfig node = small_node(grid);
  node.dvfs.levels = {0.5, 0.75, 1.0};
  const auto trace = bright_trace(grid, 0.2);
  for (auto mode : {RogueScheduler::Mode::kUnknownTask,
                    RogueScheduler::Mode::kBadLevel,
                    RogueScheduler::Mode::kNvpConflict,
                    RogueScheduler::Mode::kFrequencyCount}) {
    RogueScheduler rogue(mode);
    EXPECT_THROW(simulate(test::indep3(), trace, rogue, node),
                 std::logic_error)
        << static_cast<int>(mode);
  }
}

TEST(NodeSimValidation, RejectsDependencyViolation) {
  const auto grid = test::tiny_grid();
  const auto graph = test::chain2();
  NodeConfig node = small_node(grid);
  ChainScheduler rogue;
  EXPECT_THROW(simulate(graph, bright_trace(grid, 0.2), rogue, node),
               std::logic_error);
}

TEST(NodeSim, EnergyConservationAcrossRun) {
  const auto grid = small_grid();
  const auto graph = test::indep3();
  NodeConfig node = small_node(grid);
  node.initial_usable_j = 10.0;
  const auto gen = scaled_generator(grid, 17);
  const auto trace = gen.generate_day(solar::DayKind::kPartlyCloudy, grid);
  sched::EdfScheduler policy;
  const SimResult r = simulate(graph, trace, policy, node);

  double served = 0.0, loss = 0.0, spilled = 0.0;
  for (const auto& p : r.periods) {
    served += p.load_served_j;
    loss += p.conversion_loss_j + p.leakage_loss_j;
    spilled += p.spilled_j;
  }
  const double stored_delta =
      r.final_bank_energy_j - r.initial_bank_energy_j;
  // Conservation: harvested solar = served load + all losses + spilled +
  // net change of bank energy.
  EXPECT_NEAR(r.total_solar_j(), served + loss + spilled + stored_delta,
              1e-6 * std::max(1.0, r.total_solar_j()));
}

}  // namespace
}  // namespace solsched::nvp
