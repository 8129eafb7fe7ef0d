#include "sched/sched_util.hpp"

#include <gtest/gtest.h>

#include "../test_helpers.hpp"
#include "task/benchmarks.hpp"

namespace solsched::sched {
namespace {

/// One load-match decision through a fresh scratch, the way a policy's
/// first slot sees it.
std::vector<std::size_t> decide(const task::TaskGraph& graph,
                                const task::PeriodState& state, double now_s,
                                double dt_s, double target_w,
                                const std::vector<bool>& must_run = {},
                                double max_load_w = 1e18) {
  LoadMatchScratch scratch;
  std::vector<std::size_t> chosen;
  state.live_ready_tasks_into(now_s, scratch.live);
  load_match_decision(graph, state, scratch.live, now_s, dt_s, {}, target_w,
                      must_run, max_load_w, scratch, chosen);
  return chosen;
}

TEST(CandidatesByNvp, SortsEdfPerNvp) {
  const auto graph = test::indep3();  // NVP0: {0 (D150), 2 (D300)}, NVP1: {1}.
  task::PeriodState state(graph);
  LoadMatchScratch scratch;
  const auto& by_nvp = candidates_by_nvp(graph, state, 0.0, {}, scratch);
  ASSERT_EQ(by_nvp.size(), 2u);
  ASSERT_EQ(by_nvp[0].size(), 2u);
  EXPECT_EQ(by_nvp[0][0], 0u);  // Earlier deadline first.
  EXPECT_EQ(by_nvp[0][1], 2u);
  EXPECT_EQ(by_nvp[1], (std::vector<std::size_t>{1}));
}

TEST(CandidatesByNvp, RespectsEnabledMask) {
  const auto graph = test::indep3();
  task::PeriodState state(graph);
  LoadMatchScratch scratch;
  const auto& by_nvp =
      candidates_by_nvp(graph, state, 0.0, {false, true, true}, scratch);
  EXPECT_EQ(by_nvp[0], (std::vector<std::size_t>{2}));
}

TEST(CandidatesByNvp, ExcludesBlockedDependents) {
  const auto graph = test::chain2();
  task::PeriodState state(graph);
  LoadMatchScratch scratch;
  const auto& by_nvp = candidates_by_nvp(graph, state, 0.0, {}, scratch);
  EXPECT_EQ(by_nvp[0], (std::vector<std::size_t>{0}));
}

TEST(CandidatesByNvp, ScratchFromLargerGraphIsResized) {
  // A scratch first filled from WAM (more NVPs, more live tasks) must give
  // the small graph exactly the answer a fresh scratch gives.
  const auto wam = task::wam_benchmark();
  task::PeriodState wam_state(wam);
  LoadMatchScratch scratch;
  ASSERT_GT(wam.nvp_count(), 2u);
  ASSERT_EQ(candidates_by_nvp(wam, wam_state, 0.0, {}, scratch).size(),
            wam.nvp_count());

  const auto graph = test::indep3();
  task::PeriodState state(graph);
  LoadMatchScratch fresh;
  const auto expected = candidates_by_nvp(graph, state, 0.0, {}, fresh);
  EXPECT_EQ(candidates_by_nvp(graph, state, 0.0, {}, scratch), expected);
  ASSERT_EQ(expected.size(), 2u);

  // The same reused scratch then drives a load-match decision.
  std::vector<std::size_t> chosen{99, 98, 97, 96};  // Stale contents.
  state.live_ready_tasks_into(0.0, scratch.live);
  load_match_decision(graph, state, scratch.live, 0.0, 30.0, {}, 0.025, {},
                      1e18, scratch, chosen);
  EXPECT_EQ(chosen, decide(graph, state, 0.0, 30.0, 0.025));
}

TEST(LatestStart, DeadlineMinusRemaining) {
  const auto graph = test::chain2();
  task::PeriodState state(graph);
  EXPECT_DOUBLE_EQ(latest_start_s(graph, state, 0), 120.0 - 60.0);
  state.execute(0, 30.0);
  EXPECT_DOUBLE_EQ(latest_start_s(graph, state, 0), 120.0 - 30.0);
}

TEST(IsForced, TriggersNearSlack) {
  const auto graph = test::chain2();  // Task 0: D=120, S=60.
  task::PeriodState state(graph);
  EXPECT_FALSE(is_forced(graph, state, 0, 0.0, 30.0));
  EXPECT_TRUE(is_forced(graph, state, 0, 60.0, 30.0));
  EXPECT_TRUE(is_forced(graph, state, 0, 31.0, 30.0));
}

TEST(DependencyClosed, Checks) {
  const auto graph = test::chain2();
  EXPECT_TRUE(dependency_closed(graph, {true, true}));
  EXPECT_TRUE(dependency_closed(graph, {true, false}));
  EXPECT_FALSE(dependency_closed(graph, {false, true}));
  EXPECT_TRUE(dependency_closed(graph, {false, false}));
}

TEST(ClosedSubsets, ChainCount) {
  // A 2-chain has 3 closed subsets: {}, {0}, {0,1}.
  EXPECT_EQ(closed_subsets(test::chain2()).size(), 3u);
  // Three independent tasks: all 8 subsets.
  EXPECT_EQ(closed_subsets(test::indep3()).size(), 8u);
}

TEST(ClosedSubsets, WamFarFewerThan256) {
  const auto subsets = closed_subsets(task::wam_benchmark());
  EXPECT_LT(subsets.size(), 100u);
  EXPECT_GT(subsets.size(), 8u);
  for (const auto& s : subsets)
    EXPECT_TRUE(dependency_closed(task::wam_benchmark(), s));
}

TEST(AlphaIndex, RatioOfDemandToSupply) {
  const auto graph = test::indep3();
  // Demand: all three tasks = 60*0.015 + 90*0.025 + 30*0.010 = 3.45 J.
  const std::vector<double> solar(10, 0.0115);  // 10 slots x 30 s x 11.5 mW.
  const double alpha =
      alpha_index(graph, {true, true, true}, solar, 30.0);
  EXPECT_NEAR(alpha, 3.45 / (0.0115 * 300.0), 1e-9);
}

TEST(AlphaIndex, NoSolarSentinel) {
  const auto graph = test::indep3();
  const std::vector<double> dark(10, 0.0);
  EXPECT_GT(alpha_index(graph, {true, false, false}, dark, 30.0), 1e8);
  EXPECT_DOUBLE_EQ(alpha_index(graph, {false, false, false}, dark, 30.0),
                   0.0);
}

TEST(LoadMatch, PicksClosestCombination) {
  const auto graph = test::indep3();  // Powers 15, 25, 10 mW.
  task::PeriodState state(graph);
  // Target 25 mW: best single-head-per-NVP combo is {0, 2} (=25) or {1}.
  const auto chosen = decide(graph, state, 0.0, 30.0, 0.025);
  double load = 0.0;
  for (auto id : chosen) load += graph.task(id).power_w;
  EXPECT_NEAR(load, 0.025, 1e-9);
}

TEST(LoadMatch, ZeroTargetRunsNothingWhenNoPressure) {
  const auto graph = test::indep3();
  task::PeriodState state(graph);
  const auto chosen = decide(graph, state, 0.0, 30.0, 0.0);
  EXPECT_TRUE(chosen.empty());
}

TEST(LoadMatch, ForcedTasksAlwaysIncluded) {
  const auto graph = test::indep3();
  task::PeriodState state(graph);
  // At t=90 task 0 (D150, S60) is forced even with zero target.
  const auto chosen = decide(graph, state, 90.0, 30.0, 0.0);
  EXPECT_EQ(std::count(chosen.begin(), chosen.end(), 0u), 1);
}

TEST(LoadMatch, MustRunForcesTask) {
  const auto graph = test::indep3();
  task::PeriodState state(graph);
  const auto chosen =
      decide(graph, state, 0.0, 30.0, 0.0, {false, true, false});
  EXPECT_EQ(chosen, (std::vector<std::size_t>{1}));
}

TEST(LoadMatch, MaxLoadShedsForced) {
  const auto graph = test::indep3();
  task::PeriodState state(graph);
  // Force all three but allow only 20 mW: the latest-deadline forced tasks
  // are shed until the set fits.
  const auto chosen =
      decide(graph, state, 0.0, 30.0, 1.0, {true, true, true}, 0.020);
  double load = 0.0;
  for (auto id : chosen) load += graph.task(id).power_w;
  EXPECT_LE(load, 0.020 + 1e-9);
  EXPECT_FALSE(chosen.empty());
}

TEST(LoadMatch, InfeasibleCombosSkipped) {
  const auto graph = test::indep3();
  task::PeriodState state(graph);
  // Huge target but max load tiny: only combos under the cap are eligible.
  const auto chosen = decide(graph, state, 0.0, 30.0, 1.0, {}, 0.012);
  double load = 0.0;
  for (auto id : chosen) load += graph.task(id).power_w;
  EXPECT_LE(load, 0.012 + 1e-9);
}

}  // namespace
}  // namespace solsched::sched
