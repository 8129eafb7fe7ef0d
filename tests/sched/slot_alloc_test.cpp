// Allocation budget of the per-slot decision path (DESIGN.md §9).
//
// Every controller-free registry policy owns its slot-path buffers, and
// nvp::simulate reuses its validation masks and previous-period solar, so
// once a run is warm a slot costs at most the one std::vector that
// Scheduler::schedule_slot returns. This suite pins that down: it simulates
// two days and counts the heap allocations of the second one, with a
// budget of 1 per slot plus 4 per period (the returned PeriodPlan's te
// vector and the like). A policy that starts allocating per slot fails
// here by name, with its measured count.
//
// Allocation is counted by tests/counting_allocator.cpp, which replaces the
// global operator new, so this suite lives in its own binary.
#include <gtest/gtest.h>

#include <cstdio>
#include <memory>

#include "../counting_allocator.hpp"
#include "../test_helpers.hpp"
#include "fault/fault_injector.hpp"
#include "nvp/node_sim.hpp"
#include "sched/registry.hpp"
#include "task/benchmarks.hpp"

namespace solsched::sched {
namespace {

/// Forwards every call to `inner` and reads the allocation counter when the
/// second day's first period begins, so `counted()` after the run covers
/// exactly day two: its periods, slots and the simulator's own work.
class DayTwoCounter final : public nvp::Scheduler {
 public:
  explicit DayTwoCounter(nvp::Scheduler& inner) : inner_(&inner) {}

  std::string name() const override { return inner_->name(); }
  void begin_trace(const task::TaskGraph& graph, const nvp::NodeConfig& config,
                   const solar::SolarTrace& trace) override {
    inner_->begin_trace(graph, config, trace);
  }
  nvp::PeriodPlan begin_period(const nvp::PeriodContext& ctx) override {
    if (ctx.day == 1 && ctx.period == 0) start_ = test::allocation_count();
    return inner_->begin_period(ctx);
  }
  std::vector<std::size_t> schedule_slot(const nvp::SlotContext& ctx) override {
    return inner_->schedule_slot(ctx);
  }

  std::uint64_t counted() const { return test::allocation_count() - start_; }

 private:
  nvp::Scheduler* inner_;
  std::uint64_t start_ = 0;
};

TEST(SlotAllocations, ControllerFreeZooStaysWithinBudgetOnDayTwo) {
  const auto grid = test::small_grid(2);
  const auto trace = test::scaled_generator(grid, 2015).generate_days(2, grid);
  const auto node = test::small_node(grid);
  const task::TaskGraph graph = task::wam_benchmark();
  const std::uint64_t budget =
      grid.n_periods * grid.n_slots * 1 + grid.n_periods * 4;

  SchedulerContext ctx;
  ctx.dp.energy_buckets = 6;  // Keep the Optimal row's DP small.
  // Fault-free, and the campaign benchmark's fault mix (blackouts take the
  // simulator's power-failure branch, dropouts corrupt measured solar).
  for (const char* spec : {"", "blackout=2,dropout=0.02"}) {
    const fault::FaultInjector faults(fault::FaultPlan::parse(spec), grid);
    for (const SchedulerInfo& info : Registry::global().entries()) {
      if (info.needs_controller) continue;
      const std::unique_ptr<nvp::Scheduler> policy = info.factory(ctx);
      DayTwoCounter counter(*policy);
      solar::WcmaPredictor predictor(grid.slots_per_day());
      const nvp::SimResult sim =
          nvp::simulate(graph, trace, counter, node, predictor, nullptr,
                        &faults);
      const std::uint64_t counted = counter.counted();
      ASSERT_EQ(sim.periods.size(), grid.total_periods()) << info.id;
      std::printf("[ alloc    ] %-8s faults=%-24s day two: %llu allocations "
                  "(budget %llu)\n",
                  info.id.c_str(), *spec ? spec : "none",
                  static_cast<unsigned long long>(counted),
                  static_cast<unsigned long long>(budget));
      EXPECT_LE(counted, budget)
          << info.id << " allocates on the slot path (faults: "
          << (*spec ? spec : "none") << ")";
    }
  }
}

}  // namespace
}  // namespace solsched::sched
