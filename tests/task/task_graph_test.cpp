#include "task/task_graph.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "../test_helpers.hpp"

namespace solsched::task {
namespace {

TEST(TaskGraph, BasicQueries) {
  const TaskGraph g = test::chain2();
  EXPECT_EQ(g.name(), "chain2");
  EXPECT_EQ(g.size(), 2u);
  EXPECT_EQ(g.nvp_count(), 1u);
  EXPECT_EQ(g.edges().size(), 1u);
  EXPECT_EQ(g.predecessors(1), (std::vector<std::size_t>{0}));
  EXPECT_EQ(g.successors(0), (std::vector<std::size_t>{1}));
  EXPECT_TRUE(g.predecessors(0).empty());
}

TEST(TaskGraph, TopoOrderRespectsEdges) {
  const TaskGraph g = test::chain2();
  const auto& topo = g.topo_order();
  const auto pos0 = std::find(topo.begin(), topo.end(), 0u);
  const auto pos1 = std::find(topo.begin(), topo.end(), 1u);
  EXPECT_LT(pos0, pos1);
}

TEST(TaskGraph, CycleDetected) {
  std::vector<Task> tasks = {
      {0, "a", 100, 30, 0.01, 0},
      {1, "b", 100, 30, 0.01, 0},
  };
  EXPECT_THROW(TaskGraph("cyclic", std::move(tasks), {{0, 1}, {1, 0}}),
               std::invalid_argument);
}

TEST(TaskGraph, SelfEdgeRejected) {
  std::vector<Task> tasks = {{0, "a", 100, 30, 0.01, 0}};
  EXPECT_THROW(TaskGraph("self", std::move(tasks), {{0, 0}}),
               std::invalid_argument);
}

TEST(TaskGraph, BadEdgeEndpointRejected) {
  std::vector<Task> tasks = {{0, "a", 100, 30, 0.01, 0}};
  EXPECT_THROW(TaskGraph("bad", std::move(tasks), {{0, 5}}),
               std::invalid_argument);
}

TEST(TaskGraph, IdOrderEnforced) {
  std::vector<Task> tasks = {
      {1, "a", 100, 30, 0.01, 0},
      {0, "b", 100, 30, 0.01, 0},
  };
  EXPECT_THROW(TaskGraph("ids", std::move(tasks), {}), std::invalid_argument);
}

TEST(TaskGraph, ParameterValidation) {
  EXPECT_THROW(TaskGraph("t", {{0, "a", 100, 0, 0.01, 0}}, {}),
               std::invalid_argument);  // Zero exec time.
  EXPECT_THROW(TaskGraph("t", {{0, "a", 20, 30, 0.01, 0}}, {}),
               std::invalid_argument);  // Deadline before exec completes.
  EXPECT_THROW(TaskGraph("t", {{0, "a", 100, 30, 0.0, 0}}, {}),
               std::invalid_argument);  // Zero power.
}

TEST(TaskGraph, TasksOnNvp) {
  const TaskGraph g = test::indep3();
  EXPECT_EQ(g.tasks_on_nvp(0), (std::vector<std::size_t>{0, 2}));
  EXPECT_EQ(g.tasks_on_nvp(1), (std::vector<std::size_t>{1}));
}

TEST(TaskGraph, EnergyAndTimeTotals) {
  const TaskGraph g = test::chain2();
  EXPECT_NEAR(g.total_energy_j(), 60 * 0.02 + 60 * 0.03, 1e-12);
}

TEST(TaskGraph, PeakPowerSumsWorstPerNvp) {
  const TaskGraph g = test::indep3();
  // NVP0 worst task 0.015, NVP1 0.025.
  EXPECT_NEAR(g.peak_power_w(), 0.04, 1e-12);
}

TEST(TaskGraph, EmptyGraph) {
  const TaskGraph g("empty", {}, {});
  EXPECT_EQ(g.size(), 0u);
  EXPECT_EQ(g.nvp_count(), 0u);
  EXPECT_DOUBLE_EQ(g.total_energy_j(), 0.0);
}

}  // namespace
}  // namespace solsched::task
