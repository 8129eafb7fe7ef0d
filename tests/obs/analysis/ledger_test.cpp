// Golden-ledger suite: the energy-conservation audit (DESIGN.md §12) on
// clean, faulted and multi-threaded runs, plus the tamper-detection and
// cross-check failure paths.
#include "obs/analysis/ledger.hpp"

#include <gtest/gtest.h>

#include <cstring>

#include "../../test_helpers.hpp"
#include "core/experiment.hpp"
#include "fault/fault_injector.hpp"
#include "fault/fault_plan.hpp"
#include "nvp/node_sim.hpp"
#include "obs/analysis/attribution.hpp"
#include "sched/registry.hpp"
#include "util/thread_pool.hpp"

namespace solsched::obs::analysis {
namespace {

struct SimRun {
  nvp::SimResult result;
  obs::SimTrace events;
};

SimRun simulate_graph(const task::TaskGraph& graph, std::size_t n_days,
                   std::uint64_t seed,
                   const fault::FaultInjector* faults = nullptr,
                   const std::string& policy_id = "asap") {
  const auto grid = test::tiny_grid(n_days);
  const auto trace = test::scaled_generator(grid, seed)
                         .generate_days(n_days, grid, solar::DayKind::kClear);
  auto node = test::small_node(grid);
  node.initial_usable_j = 2.0;
  const auto policy = sched::make_scheduler(policy_id, {});
  SimRun run;
  run.result =
      nvp::simulate(graph, trace, *policy, node, &run.events, faults);
  return run;
}

void expect_conserves(const SimRun& run, const char* what) {
  const EnergyLedger ledger = build_ledger(run.events.events());
  EXPECT_EQ(ledger.periods.size(), run.result.periods.size()) << what;

  const AuditResult audit = audit_conservation(ledger, 1e-6);
  EXPECT_TRUE(audit.ok) << what << ": " << audit.message;
  EXPECT_EQ(audit.audited, run.result.periods.size()) << what;
  EXPECT_LT(audit.max_rel_error, 1e-6) << what;

  const AuditResult cross = audit_against_result(ledger, run.result);
  EXPECT_TRUE(cross.ok) << what << ": " << cross.message;
}

TEST(EnergyLedger, CleanRunConservesEveryPeriod) {
  expect_conserves(simulate_graph(test::chain2(), 2, 5), "chain2");
}

// The acceptance bar: both example workloads balance to < 1e-6 relative
// error in every period.
TEST(EnergyLedger, WamWorkloadConserves) {
  expect_conserves(simulate_graph(task::wam_benchmark(), 2, 6), "wam");
}

TEST(EnergyLedger, EcgWorkloadConserves) {
  expect_conserves(simulate_graph(task::ecg_benchmark(), 2, 7), "ecg");
}

// A faulted run (blackouts + capacitor aging + a dead cell) must balance
// too: backup/restore draws and aging-killed capacity are all ledgered. The
// DVFS matcher's frequency-scaled loads go through the same ledger.
TEST(EnergyLedger, FaultedRunConserves) {
  fault::FaultPlan plan;
  plan.seed = 17;
  plan.blackout.rate_per_day = 18.0;
  plan.blackout.mean_slots = 3.0;
  plan.aging.capacity_fade_per_day = 0.05;
  plan.aging.leakage_growth_per_day = 0.1;
  plan.aging.dead_cap_prob = 1.0;
  const fault::FaultInjector fx(plan, test::tiny_grid(3));
  for (const char* id : {"asap", "dvfs-match"}) {
    const SimRun run = simulate_graph(test::chain2(), 3, 8, &fx, id);
    ASSERT_GT(run.result.total_power_failure_slots(), 0u) << id;
    expect_conserves(run, id);
  }
}

TEST(EnergyLedger, TotalsMatchSimResultAggregates) {
  const SimRun run = simulate_graph(test::chain2(), 2, 9);
  const EnergyLedger ledger = build_ledger(run.events.events());
  EXPECT_DOUBLE_EQ(ledger.total_solar_j, run.result.total_solar_j());
  EXPECT_DOUBLE_EQ(ledger.total_served_j, run.result.total_served_j());
  // First period opens at the bank's initial energy; last closes at final.
  ASSERT_FALSE(ledger.periods.empty());
  EXPECT_DOUBLE_EQ(ledger.periods.front().bank_begin_j,
                   run.result.initial_bank_energy_j);
  EXPECT_DOUBLE_EQ(ledger.periods.back().bank_end_j,
                   run.result.final_bank_energy_j);
}

// Ledger totals and attribution are bit-identical across thread counts:
// each comparison row owns its trace, so pool scheduling cannot reorder
// anything observable.
TEST(EnergyLedger, BitIdenticalAcrossThreadCounts) {
  const auto grid = test::tiny_grid(2);
  const auto trace = test::scaled_generator(grid, 10).generate_days(
      2, grid, solar::DayKind::kPartlyCloudy);
  const auto node = test::small_node(grid);

  const auto run_rows = [&](std::size_t threads) {
    util::ThreadPool::set_global_threads(threads);
    core::ComparisonConfig config;
    // No trained controller in this test; no "optimal" keeps it fast.
    config.scheduler_ids = {"edf", "inter", "intra"};
    config.record_events = true;
    return core::run_comparison(test::indep3(), trace, node, nullptr, config);
  };
  const auto rows1 = run_rows(1);
  const auto rows4 = run_rows(4);
  util::ThreadPool::set_global_threads(1);

  ASSERT_EQ(rows1.size(), rows4.size());
  ASSERT_GT(rows1.size(), 1u);
  for (std::size_t i = 0; i < rows1.size(); ++i) {
    ASSERT_TRUE(rows1[i].events && rows4[i].events);
    const EnergyLedger a = build_ledger(rows1[i].events->events());
    const EnergyLedger b = build_ledger(rows4[i].events->events());
    ASSERT_EQ(a.periods.size(), b.periods.size());
    EXPECT_EQ(std::memcmp(&a.total_solar_j, &b.total_solar_j,
                          sizeof(double)), 0);
    EXPECT_EQ(std::memcmp(&a.total_served_j, &b.total_served_j,
                          sizeof(double)), 0);
    EXPECT_EQ(std::memcmp(&a.total_leakage_loss_j, &b.total_leakage_loss_j,
                          sizeof(double)), 0);
    for (std::size_t p = 0; p < a.periods.size(); ++p)
      EXPECT_EQ(std::memcmp(&a.periods[p].bank_end_j,
                            &b.periods[p].bank_end_j, sizeof(double)), 0);
    const DmrAttribution attr_a = attribute_misses(rows1[i].events->events());
    const DmrAttribution attr_b = attribute_misses(rows4[i].events->events());
    EXPECT_EQ(attr_a.counts, attr_b.counts);
    EXPECT_EQ(attr_a.total_misses, attr_b.total_misses);
  }
}

TEST(EnergyLedger, AuditFailsWithoutBankEvents) {
  obs::SimEvent pe;
  pe.type = "period_energy";
  pe.fields = {{"solar_in_j", 1.0}, {"load_served_j", 1.0}};
  const EnergyLedger ledger = build_ledger({pe});
  const AuditResult audit = audit_conservation(ledger);
  EXPECT_FALSE(audit.ok);
  EXPECT_EQ(audit.audited, 0u);
}

// Tampering with any flow by more than the tolerance trips the audit: the
// invariant actually constrains the numbers.
TEST(EnergyLedger, AuditDetectsAnUnledgeredJoule) {
  SimRun run = simulate_graph(test::chain2(), 1, 11);
  std::vector<obs::SimEvent> events = run.events.events();
  for (obs::SimEvent& e : events) {
    if (e.type != "period_energy") continue;
    for (auto& [name, value] : e.fields)
      if (name == "solar_in_j") value += 0.5;  // Half a joule from nowhere.
    break;
  }
  const AuditResult audit = audit_conservation(build_ledger(events));
  EXPECT_FALSE(audit.ok);
  EXPECT_GT(audit.max_rel_error, 1e-6);
}

TEST(EnergyLedger, CrossCheckDetectsDivergence) {
  SimRun run = simulate_graph(test::chain2(), 1, 12);
  const EnergyLedger ledger = build_ledger(run.events.events());
  nvp::SimResult tampered = run.result;
  ASSERT_FALSE(tampered.periods.empty());
  tampered.periods[0].load_served_j += 1e-3;
  EXPECT_TRUE(audit_against_result(ledger, run.result).ok);
  EXPECT_FALSE(audit_against_result(ledger, tampered).ok);
  tampered = run.result;
  tampered.periods.pop_back();
  EXPECT_FALSE(audit_against_result(ledger, tampered).ok);
}

}  // namespace
}  // namespace solsched::obs::analysis
