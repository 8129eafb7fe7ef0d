// Fault injection through nvp::simulate and the schedulers: the no-fault
// bit-identity contract, the NVP backup/restore vs volatile-baseline
// ablation, the proposed scheduler's graceful degradation, and determinism
// of the resilience sweep across thread counts (with golden fault-event
// round trips through the JSONL trace format).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "../test_helpers.hpp"
#include "core/experiment.hpp"
#include "core/pipeline.hpp"
#include "core/report.hpp"
#include "fault/fault_injector.hpp"
#include "nvp/node_sim.hpp"
#include "obs/sim_trace.hpp"
#include "sched/lsa_inter.hpp"
#include "sched/proposed.hpp"
#include "sched/registry.hpp"
#include "util/thread_pool.hpp"

namespace solsched {
namespace {

/// Bitwise equality of two simulation results, period by period.
void expect_sim_equal(const nvp::SimResult& a, const nvp::SimResult& b) {
  ASSERT_EQ(a.periods.size(), b.periods.size());
  for (std::size_t i = 0; i < a.periods.size(); ++i) {
    const auto& pa = a.periods[i];
    const auto& pb = b.periods[i];
    EXPECT_EQ(pa.dmr, pb.dmr) << "period " << i;
    EXPECT_EQ(pa.misses, pb.misses) << "period " << i;
    EXPECT_EQ(pa.completions, pb.completions) << "period " << i;
    EXPECT_EQ(pa.brownout_slots, pb.brownout_slots) << "period " << i;
    EXPECT_EQ(pa.cap_index, pb.cap_index) << "period " << i;
    EXPECT_EQ(pa.solar_in_j, pb.solar_in_j) << "period " << i;
    EXPECT_EQ(pa.load_served_j, pb.load_served_j) << "period " << i;
    EXPECT_EQ(pa.stored_j, pb.stored_j) << "period " << i;
    EXPECT_EQ(pa.migrated_in_j, pb.migrated_in_j) << "period " << i;
    EXPECT_EQ(pa.cap_supplied_j, pb.cap_supplied_j) << "period " << i;
    EXPECT_EQ(pa.conversion_loss_j, pb.conversion_loss_j) << "period " << i;
    EXPECT_EQ(pa.leakage_loss_j, pb.leakage_loss_j) << "period " << i;
    EXPECT_EQ(pa.spilled_j, pb.spilled_j) << "period " << i;
    EXPECT_EQ(pa.power_failures, pb.power_failures) << "period " << i;
    EXPECT_EQ(pa.power_failure_slots, pb.power_failure_slots) << "period " << i;
    EXPECT_EQ(pa.backups, pb.backups) << "period " << i;
    EXPECT_EQ(pa.restores, pb.restores) << "period " << i;
    EXPECT_EQ(pa.fallbacks, pb.fallbacks) << "period " << i;
    EXPECT_EQ(pa.backup_energy_j, pb.backup_energy_j) << "period " << i;
    EXPECT_EQ(pa.restore_energy_j, pb.restore_energy_j) << "period " << i;
    EXPECT_EQ(pa.lost_progress_s, pb.lost_progress_s) << "period " << i;
  }
  EXPECT_EQ(a.initial_bank_energy_j, b.initial_bank_energy_j);
  EXPECT_EQ(a.final_bank_energy_j, b.final_bank_energy_j);
}

/// Trains a small controller once for the whole suite (expensive-ish).
const core::TrainedController& trained_controller() {
  static const core::TrainedController controller = [] {
    const auto grid = test::small_grid();
    const auto gen = test::scaled_generator(grid, 3);
    const auto trace = gen.generate_days(3, grid);
    core::PipelineConfig config;
    config.n_caps = 3;
    config.dp.energy_buckets = 10;
    config.dbn.pretrain.epochs = 5;
    config.dbn.finetune.epochs = 60;
    return core::train_pipeline(test::indep3(), trace,
                                test::small_node(grid), config);
  }();
  return controller;
}

fault::FaultPlan blackout_plan() {
  fault::FaultPlan plan;
  plan.seed = 17;
  plan.blackout.rate_per_day = 18.0;
  plan.blackout.mean_slots = 3.0;
  return plan;
}

TEST(FaultSim, InactiveInjectorBitIdenticalToNoInjector) {
  const auto grid = test::tiny_grid(2);
  const auto gen = test::scaled_generator(grid, 21);
  const auto trace = gen.generate_days(2, grid);
  auto node = test::small_node(grid);
  node.initial_usable_j = 2.0;

  const fault::FaultInjector inactive(fault::FaultPlan{}, grid);
  for (const char* id : {"inter", "dvfs-match"}) {
    SCOPED_TRACE(id);
    const auto a = sched::make_scheduler(id, {});
    const auto b = sched::make_scheduler(id, {});
    const nvp::SimResult plain =
        nvp::simulate(test::chain2(), trace, *a, node, nullptr, nullptr);
    const nvp::SimResult hooked =
        nvp::simulate(test::chain2(), trace, *b, node, nullptr, &inactive);
    expect_sim_equal(plain, hooked);
    EXPECT_EQ(hooked.total_power_failure_slots(), 0u);
    EXPECT_EQ(hooked.total_backups(), 0u);
  }
}

TEST(FaultSim, InjectorGridMustMatchTrace) {
  const auto grid = test::tiny_grid(1);
  const auto gen = test::scaled_generator(grid, 22);
  const auto trace = gen.generate_day(solar::DayKind::kClear, grid);
  const fault::FaultInjector fx(blackout_plan(), test::tiny_grid(2));
  sched::LsaInterScheduler policy;
  EXPECT_THROW(nvp::simulate(test::chain2(), trace, policy,
                             test::small_node(grid), nullptr, &fx),
               std::invalid_argument);
}

TEST(FaultSim, BlackoutsCutHarvestAndScheduling) {
  const auto grid = test::tiny_grid(2);
  const auto gen = test::scaled_generator(grid, 23);
  const auto trace = gen.generate_days(2, grid);
  auto node = test::small_node(grid);
  node.initial_usable_j = 2.0;
  const fault::FaultInjector fx(blackout_plan(), grid);
  ASSERT_GT(fx.blackout_slots(), 0u);

  sched::LsaInterScheduler with_faults, without;
  const nvp::SimResult faulty = nvp::simulate(test::chain2(), trace,
                                              with_faults, node, nullptr, &fx);
  const nvp::SimResult clean =
      nvp::simulate(test::chain2(), trace, without, node);

  EXPECT_EQ(faulty.total_power_failure_slots(), fx.blackout_slots());
  EXPECT_EQ(faulty.total_power_failures(), fx.blackout_events());
  EXPECT_GT(faulty.total_backups(), 0u);
  EXPECT_GT(faulty.total_restores(), 0u);
  // Dark slots harvest nothing, so the faulty run collects strictly less.
  EXPECT_LT(faulty.total_solar_j(), clean.total_solar_j());
  // The NVP checkpoints instead of losing work.
  EXPECT_EQ(faulty.total_lost_progress_s(), 0.0);
  EXPECT_GE(faulty.overall_dmr(), clean.overall_dmr());
}

TEST(FaultSim, NvpBackupRestoreBeatsVolatileBaseline) {
  const auto grid = test::tiny_grid(2);
  const auto gen = test::scaled_generator(grid, 23);
  const auto trace = gen.generate_days(2, grid);
  auto nvp_node = test::small_node(grid);
  nvp_node.initial_usable_j = 2.0;
  auto volatile_node = nvp_node;
  volatile_node.volatile_baseline = true;

  const fault::FaultInjector fx(blackout_plan(), grid);
  sched::LsaInterScheduler a, b;
  const nvp::SimResult nvp_run =
      nvp::simulate(test::chain2(), trace, a, nvp_node, nullptr, &fx);
  const nvp::SimResult volatile_run =
      nvp::simulate(test::chain2(), trace, b, volatile_node, nullptr, &fx);

  // Identical outage schedule for both runs.
  EXPECT_EQ(nvp_run.total_power_failure_slots(),
            volatile_run.total_power_failure_slots());
  // The NVP checkpoints (paying backup energy); the volatile node wipes its
  // in-period progress and must redo the work.
  EXPECT_GT(nvp_run.total_backups(), 0u);
  EXPECT_EQ(volatile_run.total_backups(), 0u);
  EXPECT_EQ(nvp_run.total_lost_progress_s(), 0.0);
  EXPECT_GT(volatile_run.total_lost_progress_s(), 0.0);
  // Progress preservation shows up as strictly fewer deadline misses.
  EXPECT_LT(nvp_run.overall_dmr(), volatile_run.overall_dmr());
}

TEST(FaultSim, CorruptedControllerFallsBackToLsaBaseline) {
  const auto& controller = trained_controller();
  const auto grid = test::small_grid();
  const auto gen = test::scaled_generator(grid, 4);
  const auto trace = gen.generate_day(solar::DayKind::kPartlyCloudy, grid);

  fault::FaultPlan plan;
  plan.seed = 5;
  plan.controller.corrupt_prob = 1.0;  // Every period's output is corrupted.
  const fault::FaultInjector fx(plan, grid);
  ASSERT_EQ(fx.corrupted_periods(), grid.total_periods());

  auto proposed = core::make_proposed(controller);
  proposed->attach_faults(&fx);
  const nvp::SimResult degraded = nvp::simulate(
      test::indep3(), trace, *proposed, controller.node, nullptr, &fx);

  // Every period degraded, and the scheduler knows why.
  EXPECT_EQ(degraded.total_fallbacks(), grid.total_periods());
  EXPECT_EQ(proposed->fallback_count(), grid.total_periods());
  EXPECT_NE(proposed->last_fallback(), sched::FallbackReason::kNone);

  // The degraded run must match the plain LSA baseline exactly: same
  // hardware, same slot decisions, no capacitor churn.
  sched::LsaInterScheduler lsa;
  const nvp::SimResult baseline =
      nvp::simulate(test::indep3(), trace, lsa, controller.node);
  ASSERT_EQ(degraded.periods.size(), baseline.periods.size());
  for (std::size_t i = 0; i < baseline.periods.size(); ++i) {
    EXPECT_EQ(degraded.periods[i].dmr, baseline.periods[i].dmr)
        << "period " << i;
    EXPECT_EQ(degraded.periods[i].misses, baseline.periods[i].misses)
        << "period " << i;
    EXPECT_EQ(degraded.periods[i].load_served_j,
              baseline.periods[i].load_served_j)
        << "period " << i;
    EXPECT_EQ(degraded.periods[i].cap_index, baseline.periods[i].cap_index)
        << "period " << i;
  }
}

TEST(FaultSim, FallbackEventsAppearInTrace) {
  const auto& controller = trained_controller();
  const auto grid = test::small_grid();
  const auto gen = test::scaled_generator(grid, 6);
  const auto trace = gen.generate_day(solar::DayKind::kClear, grid);

  fault::FaultPlan plan;
  plan.seed = 8;
  plan.controller.corrupt_prob = 1.0;
  plan.blackout.rate_per_day = 12.0;
  const fault::FaultInjector fx(plan, grid);

  auto proposed = core::make_proposed(controller);
  proposed->attach_faults(&fx);
  obs::SimTrace events;
  nvp::simulate(test::indep3(), trace, *proposed, controller.node, &events,
                &fx);

  EXPECT_EQ(events.count("fallback"), grid.total_periods());
  EXPECT_GT(events.count("power_failure"), 0u);
  EXPECT_GT(events.count("backup"), 0u);
  EXPECT_GT(events.count("restore"), 0u);
  // Fault events survive the JSONL round trip byte-for-byte.
  const std::string jsonl = events.to_jsonl();
  obs::SimTrace parsed;
  for (auto& event : obs::SimTrace::parse_jsonl(jsonl))
    parsed.emit(std::move(event));
  EXPECT_EQ(parsed.to_jsonl(), jsonl);
}

TEST(FaultSim, ResilienceSweepDeterministicAcrossThreadCounts) {
  const auto& controller = trained_controller();
  const auto grid = test::small_grid();
  const auto gen = test::scaled_generator(grid, 9);
  const auto trace = gen.generate_day(solar::DayKind::kPartlyCloudy, grid);

  core::ResilienceConfig config;
  config.plan = blackout_plan();
  config.plan.sensor.dropout_prob = 0.05;
  config.plan.controller.corrupt_prob = 0.2;
  config.intensities = {0.0, 1.0, 2.0};

  util::ThreadPool::set_global_threads(1);
  const auto serial = core::run_resilience_sweep(
      test::indep3(), trace, controller.node, &controller, config);
  util::ThreadPool::set_global_threads(4);
  const auto parallel = core::run_resilience_sweep(
      test::indep3(), trace, controller.node, &controller, config);
  util::ThreadPool::set_global_threads(
      util::ThreadPool::thread_count_from_env());

  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].intensity, parallel[i].intensity);
    ASSERT_EQ(serial[i].rows.size(), parallel[i].rows.size()) << "point " << i;
    for (std::size_t r = 0; r < serial[i].rows.size(); ++r) {
      EXPECT_EQ(serial[i].rows[r].algo, parallel[i].rows[r].algo);
      expect_sim_equal(serial[i].rows[r].sim, parallel[i].rows[r].sim);
    }
  }

  // Intensity 0 is the fault-free control; higher intensities see outages.
  EXPECT_EQ(serial[0].rows[0].sim.total_power_failure_slots(), 0u);
  EXPECT_GT(serial[1].rows[0].sim.total_power_failure_slots(), 0u);
  // The volatile ablation row exists and loses progress under blackout.
  const auto& vol = core::row_of(serial[1].rows, "proposed_volatile");
  EXPECT_GT(vol.sim.total_lost_progress_s(), 0.0);
  // And the report renders every row.
  const std::string table = core::resilience_table(serial);
  EXPECT_NE(table.find("Proposed (volatile)"), std::string::npos);
  EXPECT_NE(table.find("Inter-task"), std::string::npos);
}

TEST(FaultSim, FaultEventTraceIdenticalAcrossThreadCounts) {
  const auto grid = test::tiny_grid(2);
  const auto gen = test::scaled_generator(grid, 31);
  const auto trace = gen.generate_days(2, grid);
  const auto node = test::small_node(grid);
  const fault::FaultInjector fx(blackout_plan(), grid);

  core::ComparisonConfig cmp;
  cmp.scheduler_ids = {"inter", "intra"};
  cmp.record_events = true;
  cmp.faults = &fx;

  util::ThreadPool::set_global_threads(1);
  const auto serial =
      core::run_comparison(test::chain2(), trace, node, nullptr, cmp);
  util::ThreadPool::set_global_threads(4);
  const auto parallel =
      core::run_comparison(test::chain2(), trace, node, nullptr, cmp);
  util::ThreadPool::set_global_threads(
      util::ThreadPool::thread_count_from_env());

  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t r = 0; r < serial.size(); ++r) {
    ASSERT_NE(serial[r].events, nullptr);
    ASSERT_NE(parallel[r].events, nullptr);
    EXPECT_EQ(serial[r].events->to_jsonl(), parallel[r].events->to_jsonl())
        << serial[r].algo;
    EXPECT_GT(serial[r].events->count("power_failure"), 0u) << serial[r].algo;
  }
}

TEST(FaultSim, DeadCapacitorIsSurvivable) {
  const auto grid = test::tiny_grid(2);
  const auto gen = test::scaled_generator(grid, 41);
  const auto trace = gen.generate_days(2, grid);
  auto node = test::small_node(grid);
  node.initial_usable_j = 2.0;

  fault::FaultPlan plan;
  plan.seed = 3;
  plan.aging.dead_cap_prob = 1.0;
  plan.aging.capacity_fade_per_day = 0.05;
  plan.aging.leakage_growth_per_day = 0.1;
  const fault::FaultInjector fx(plan, grid);

  sched::LsaInterScheduler policy;
  const nvp::SimResult sim =
      nvp::simulate(test::chain2(), trace, policy, node, nullptr, &fx);
  // The run completes with sane accounting despite the dead cell and aging.
  EXPECT_EQ(sim.periods.size(), grid.total_periods());
  EXPECT_GE(sim.overall_dmr(), 0.0);
  EXPECT_LE(sim.overall_dmr(), 1.0);
}

}  // namespace
}  // namespace solsched
