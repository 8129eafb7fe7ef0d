#include "core/pipeline.hpp"

#include <gtest/gtest.h>

#include "../test_helpers.hpp"

namespace solsched::core {
namespace {

PipelineConfig fast_config() {
  PipelineConfig config;
  config.n_caps = 2;
  config.dp.energy_buckets = 8;
  config.dbn.pretrain.epochs = 3;
  config.dbn.finetune.epochs = 30;
  return config;
}

TEST(Pipeline, ProducesConsistentController) {
  const auto grid = test::small_grid();
  const auto gen = test::scaled_generator(grid, 41);
  const auto trace = gen.generate_days(2, grid);
  const auto graph = test::indep3();
  const TrainedController c =
      train_pipeline(graph, trace, test::small_node(grid), fast_config());

  EXPECT_EQ(c.node.capacities_f.size(), 2u);
  EXPECT_EQ(c.model.capacities_f, c.node.capacities_f);
  EXPECT_EQ(c.model.n_slots, grid.n_slots);
  EXPECT_EQ(c.model.n_tasks, graph.size());
  EXPECT_EQ(c.n_samples, trace.grid().total_periods());
  EXPECT_GT(c.lut.size(), 0u);
  EXPECT_GE(c.oracle_dmr, 0.0);
  EXPECT_LE(c.oracle_dmr, 1.0);
  EXPECT_LT(c.train_mse, 0.2);
  ASSERT_NE(c.model.dbn, nullptr);
  EXPECT_EQ(c.model.dbn->n_inputs(), grid.n_slots + 2 + 1);
  EXPECT_EQ(c.model.dbn->n_outputs(), 2 + 1 + graph.size());
}

TEST(Pipeline, MakeProposedRoundTrips) {
  const auto grid = test::small_grid();
  const auto gen = test::scaled_generator(grid, 43);
  const auto trace = gen.generate_days(2, grid);
  const TrainedController c = train_pipeline(test::indep3(), trace,
                                             test::small_node(grid),
                                             fast_config());
  const auto policy = make_proposed(c);
  ASSERT_NE(policy, nullptr);
  EXPECT_EQ(policy->name(), "Proposed");
}

TEST(Pipeline, DeterministicAcrossRuns) {
  const auto grid = test::tiny_grid();
  const auto gen = test::scaled_generator(grid, 44);
  const auto trace = gen.generate_days(2, grid);
  const auto graph = test::chain2();
  const auto node = test::small_node(grid);
  const TrainedController a =
      train_pipeline(graph, trace, node, fast_config());
  const TrainedController b =
      train_pipeline(graph, trace, node, fast_config());
  EXPECT_EQ(a.node.capacities_f, b.node.capacities_f);
  EXPECT_DOUBLE_EQ(a.train_mse, b.train_mse);
  EXPECT_DOUBLE_EQ(a.oracle_dmr, b.oracle_dmr);
}

}  // namespace
}  // namespace solsched::core
