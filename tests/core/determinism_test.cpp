// Determinism contract of the performance substrate: the period-option
// cache and the thread pool are pure accelerations — they must never change
// a plan, a trained controller or a comparison row.
#include <gtest/gtest.h>

#include "core/experiment.hpp"
#include "core/pipeline.hpp"
#include "obs/metrics.hpp"
#include "sched/optimal.hpp"
#include "util/thread_pool.hpp"

#include "../test_helpers.hpp"

namespace solsched::core {
namespace {

void expect_plans_equal(const sched::OptimalScheduler& a,
                        const sched::OptimalScheduler& b) {
  ASSERT_EQ(a.plan().size(), b.plan().size());
  for (std::size_t p = 0; p < a.plan().size(); ++p) {
    const auto& pa = a.plan()[p];
    const auto& pb = b.plan()[p];
    EXPECT_EQ(pa.cap_index, pb.cap_index) << "period " << p;
    EXPECT_EQ(pa.te, pb.te) << "period " << p;
    EXPECT_EQ(pa.alpha, pb.alpha) << "period " << p;
    EXPECT_EQ(pa.planned_misses, pb.planned_misses) << "period " << p;
    EXPECT_EQ(pa.planned_consumed_j, pb.planned_consumed_j) << "period " << p;
    EXPECT_EQ(pa.planned_v0, pb.planned_v0) << "period " << p;
  }
  EXPECT_EQ(a.planned_total_misses(), b.planned_total_misses());

  const auto& lut_a = a.lut().entries();
  const auto& lut_b = b.lut().entries();
  ASSERT_EQ(lut_a.size(), lut_b.size());
  for (std::size_t e = 0; e < lut_a.size(); ++e) {
    EXPECT_EQ(lut_a[e].key.dmr, lut_b[e].key.dmr) << "entry " << e;
    EXPECT_EQ(lut_a[e].key.solar_energy_j, lut_b[e].key.solar_energy_j)
        << "entry " << e;
    EXPECT_EQ(lut_a[e].key.capacity_f, lut_b[e].key.capacity_f)
        << "entry " << e;
    EXPECT_EQ(lut_a[e].key.v0, lut_b[e].key.v0) << "entry " << e;
    EXPECT_EQ(lut_a[e].consumed_j, lut_b[e].consumed_j) << "entry " << e;
    EXPECT_EQ(lut_a[e].alpha, lut_b[e].alpha) << "entry " << e;
    EXPECT_EQ(lut_a[e].te, lut_b[e].te) << "entry " << e;
  }
}

TEST(Determinism, CachedVsUncachedOptimalIdentical) {
  const auto grid = test::small_grid();
  const auto gen = test::scaled_generator(grid, 7);
  const auto trace = gen.generate_days(2, grid);
  const auto graph = test::indep3();
  const auto node = test::small_node(grid);

  // Same v0 quantization on both sides; only the memoization differs.
  sched::OptimalConfig cached_cfg;
  cached_cfg.use_option_cache = true;
  cached_cfg.v0_quant_steps = 16;
  sched::OptimalConfig uncached_cfg = cached_cfg;
  uncached_cfg.use_option_cache = false;

  sched::OptimalScheduler cached(cached_cfg);
  sched::OptimalScheduler uncached(uncached_cfg);
  cached.begin_trace(graph, node, trace);
  uncached.begin_trace(graph, node, trace);

  expect_plans_equal(cached, uncached);

  const auto stats = cached.option_cache_stats();
  EXPECT_GT(stats.hits, 0u);  // The DP + backtrack must actually reuse work.
  EXPECT_GT(stats.misses, 0u);
  EXPECT_EQ(uncached.option_cache_stats().hits, 0u);
  EXPECT_EQ(uncached.option_cache_stats().misses, 0u);
}

TEST(Determinism, ExactOracleCachedVsUncachedIdentical) {
  // Without quantization (the pure-oracle default) the cache still may not
  // perturb anything.
  const auto grid = test::tiny_grid();
  const auto gen = test::scaled_generator(grid, 8);
  const auto trace = gen.generate_days(1, grid);
  const auto graph = test::chain2();
  const auto node = test::small_node(grid);

  sched::OptimalConfig cached_cfg;  // v0_quant_steps = 0 by default.
  sched::OptimalConfig uncached_cfg = cached_cfg;
  uncached_cfg.use_option_cache = false;

  sched::OptimalScheduler cached(cached_cfg);
  sched::OptimalScheduler uncached(uncached_cfg);
  cached.begin_trace(graph, node, trace);
  uncached.begin_trace(graph, node, trace);
  expect_plans_equal(cached, uncached);
}

TEST(Determinism, SharedCacheAcrossSchedulersIdentical) {
  const auto grid = test::small_grid();
  const auto gen = test::scaled_generator(grid, 9);
  const auto trace = gen.generate_days(2, grid);
  const auto graph = test::indep3();
  const auto node = test::small_node(grid);

  sched::OptimalConfig cfg;
  cfg.v0_quant_steps = 16;
  sched::OptimalScheduler first(cfg);
  first.begin_trace(graph, node, trace);

  // Second scheduler on the same trace/node reuses the first one's cache:
  // identical plan, and nearly every lookup hits.
  sched::OptimalConfig shared_cfg = cfg;
  shared_cfg.shared_cache = std::make_shared<sched::PeriodOptionCache>();
  sched::OptimalScheduler warmup(shared_cfg);
  warmup.begin_trace(graph, node, trace);
  const auto warm_stats = warmup.option_cache_stats();

  sched::OptimalScheduler second(shared_cfg);
  second.begin_trace(graph, node, trace);
  expect_plans_equal(first, second);

  const auto stats = second.option_cache_stats();
  EXPECT_EQ(stats.misses, warm_stats.misses);  // No new period was computed.
  EXPECT_GT(stats.hits, warm_stats.hits);
}

PipelineConfig fast_pipeline_config() {
  PipelineConfig config;
  config.n_caps = 2;
  config.dp.energy_buckets = 8;
  config.dbn.pretrain.epochs = 3;
  config.dbn.finetune.epochs = 20;
  return config;
}

TEST(Determinism, TrainPipelineIdenticalAcrossThreadCounts) {
  const auto grid = test::small_grid();
  const auto gen = test::scaled_generator(grid, 10);
  const auto trace = gen.generate_days(2, grid);
  const auto graph = test::indep3();
  const auto node = test::small_node(grid);
  const PipelineConfig config = fast_pipeline_config();

  util::ThreadPool::set_global_threads(1);
  const TrainedController serial = train_pipeline(graph, trace, node, config);
  util::ThreadPool::set_global_threads(3);
  const TrainedController threaded =
      train_pipeline(graph, trace, node, config);
  util::ThreadPool::set_global_threads(util::ThreadPool::thread_count_from_env());

  // Bit-identical controller: sized bank, oracle labels, trained weights.
  EXPECT_EQ(serial.node.capacities_f, threaded.node.capacities_f);
  EXPECT_EQ(serial.sizing.daily_optimal_f, threaded.sizing.daily_optimal_f);
  EXPECT_EQ(serial.n_samples, threaded.n_samples);
  EXPECT_EQ(serial.train_mse, threaded.train_mse);
  EXPECT_EQ(serial.oracle_dmr, threaded.oracle_dmr);
  ASSERT_NE(serial.model.dbn, nullptr);
  ASSERT_NE(threaded.model.dbn, nullptr);
  EXPECT_EQ(serial.model.dbn->network().serialize(),
            threaded.model.dbn->network().serialize());

  const auto& lut_a = serial.lut.entries();
  const auto& lut_b = threaded.lut.entries();
  ASSERT_EQ(lut_a.size(), lut_b.size());
  for (std::size_t e = 0; e < lut_a.size(); ++e) {
    EXPECT_EQ(lut_a[e].consumed_j, lut_b[e].consumed_j) << "entry " << e;
    EXPECT_EQ(lut_a[e].alpha, lut_b[e].alpha) << "entry " << e;
    EXPECT_EQ(lut_a[e].te, lut_b[e].te) << "entry " << e;
  }
}

TEST(Determinism, RunComparisonIdenticalAcrossThreadCounts) {
  const auto grid = test::small_grid();
  const auto gen = test::scaled_generator(grid, 11);
  const auto trace = gen.generate_days(2, grid);
  const auto graph = test::indep3();
  const auto node = test::small_node(grid);

  util::ThreadPool::set_global_threads(1);
  const TrainedController trained =
      train_pipeline(graph, trace, node, fast_pipeline_config());

  ComparisonConfig cmp;
  cmp.dp = fast_pipeline_config().dp;

  const auto serial_rows = run_comparison(graph, trace, node, &trained, cmp);
  util::ThreadPool::set_global_threads(4);
  const auto threaded_rows = run_comparison(graph, trace, node, &trained, cmp);
  util::ThreadPool::set_global_threads(util::ThreadPool::thread_count_from_env());

  ASSERT_EQ(serial_rows.size(), threaded_rows.size());
  for (std::size_t r = 0; r < serial_rows.size(); ++r) {
    EXPECT_EQ(serial_rows[r].algo, threaded_rows[r].algo) << "row " << r;
    EXPECT_EQ(serial_rows[r].dmr, threaded_rows[r].dmr) << "row " << r;
    EXPECT_EQ(serial_rows[r].energy_utilization,
              threaded_rows[r].energy_utilization)
        << "row " << r;
    EXPECT_EQ(serial_rows[r].migration_efficiency,
              threaded_rows[r].migration_efficiency)
        << "row " << r;
    EXPECT_EQ(serial_rows[r].brownouts, threaded_rows[r].brownouts)
        << "row " << r;
  }
}

TEST(Determinism, HeldOutComparisonIdenticalAcrossThreadCounts) {
  // On the training trace the Optimal row rides the oracle's cache and never
  // solves a DP. A held-out trace (another generator seed) makes it solve
  // one inside its row job, with the pareto sweeps nested under the DP's
  // label fan-out: the deepest nesting the pool sees.
  const auto grid = test::small_grid();
  const auto train_trace = test::scaled_generator(grid, 11).generate_days(2, grid);
  const auto held_out = test::scaled_generator(grid, 12).generate_days(2, grid);
  const auto graph = test::indep3();
  const auto node = test::small_node(grid);
  ComparisonConfig cmp;
  cmp.dp = fast_pipeline_config().dp;

  struct Run {
    std::vector<ComparisonRow> rows;
    sched::OptionCacheStats cache;
    std::uint64_t dp_evaluations = 0;
    std::uint64_t pareto_calls = 0;
    std::uint64_t pareto_subset_evals = 0;
    std::uint64_t pareto_slot_steps = 0;
    std::size_t n_samples = 0;
    std::size_t total_periods = 0;
  };
  auto run_at = [&](std::size_t threads) {
    util::ThreadPool::set_global_threads(threads);
    const TrainedController trained =
        train_pipeline(graph, train_trace, node, fast_pipeline_config());
    obs::set_enabled(true);
    obs::MetricsRegistry::global().reset();
    Run run;
    run.rows = run_comparison(graph, held_out, node, &trained, cmp);
    const auto counters = obs::MetricsRegistry::global().snapshot();
    run.dp_evaluations = counters.counter_or("sched.dp.evaluations");
    run.pareto_calls = counters.counter_or("sched.pareto.calls");
    run.pareto_subset_evals = counters.counter_or("sched.pareto.subset_evals");
    run.pareto_slot_steps = counters.counter_or("sched.pareto.slot_steps");
    obs::set_enabled(false);
    run.cache = trained.option_cache->stats();
    run.n_samples = trained.n_samples;
    for (const ComparisonRow& row : run.rows)
      run.total_periods += row.sim.periods.size();
    return run;
  };
  const Run serial = run_at(1);
  const Run threaded = run_at(4);
  util::ThreadPool::set_global_threads(util::ThreadPool::thread_count_from_env());

  ASSERT_EQ(serial.rows.size(), threaded.rows.size());
  ASSERT_NO_THROW((void)row_of(serial.rows, "optimal"));
  for (std::size_t r = 0; r < serial.rows.size(); ++r) {
    const ComparisonRow& a = serial.rows[r];
    const ComparisonRow& b = threaded.rows[r];
    EXPECT_EQ(a.id, b.id) << "row " << r;
    EXPECT_EQ(a.algo, b.algo) << "row " << r;
    EXPECT_EQ(a.dmr, b.dmr) << a.id;
    EXPECT_EQ(a.energy_utilization, b.energy_utilization) << a.id;
    EXPECT_EQ(a.migration_efficiency, b.migration_efficiency) << a.id;
    EXPECT_EQ(a.brownouts, b.brownouts) << a.id;
    EXPECT_EQ(a.sim.periods.size(), b.sim.periods.size()) << a.id;
    EXPECT_EQ(a.sim.final_bank_energy_j, b.sim.final_bank_energy_j) << a.id;
    EXPECT_EQ(a.sim.total_served_j(), b.sim.total_served_j()) << a.id;
    EXPECT_EQ(a.sim.total_loss_j(), b.sim.total_loss_j()) << a.id;
  }

  // Work-count pin: how much each layer does for this fixed input, at both
  // thread counts. The row really solves a DP, the shared cache's counters
  // are thread-count independent (single-flight lookups, no eviction), and
  // a change that drops or repeats work (an extra pareto sweep, a lost
  // cache hit, a skipped training sample) fails here by layer even when
  // every row above still agrees across thread counts.
  for (const Run* run : {&serial, &threaded}) {
    EXPECT_EQ(run->cache.evictions, 0u) << "sched.option_cache layer";
    EXPECT_EQ(run->dp_evaluations, 145u) << "sched.dp layer: DP evaluations";
    EXPECT_EQ(run->pareto_calls, 77u)
        << "sched.pareto layer: pareto_options calls";
    EXPECT_EQ(run->pareto_subset_evals, 616u)
        << "sched.pareto layer: subset evaluations";
    EXPECT_EQ(run->pareto_slot_steps, 2196u)
        << "sched.pareto layer: scheduling slots simulated";
    EXPECT_EQ(run->cache.hits, 220u) << "sched.option_cache layer: hits";
    EXPECT_EQ(run->cache.misses, 163u) << "sched.option_cache layer: misses";
    EXPECT_EQ(run->cache.entries, 163u) << "sched.option_cache layer: entries";
    EXPECT_EQ(run->n_samples, 48u) << "core.pipeline layer: training samples";
    EXPECT_EQ(run->total_periods, 192u)
        << "nvp.simulate layer: periods simulated over the rows";
  }
}

}  // namespace
}  // namespace solsched::core
