#include "sched/duty_cycle.hpp"

#include <algorithm>

#include "sched/sched_util.hpp"

namespace solsched::sched {
namespace {

/// Weight of the newest period's harvest in the estimate.
constexpr double kHarvestEwma = 0.3;
/// Fraction of stored energy spendable per period on top of expected
/// harvest.
constexpr double kStorageDraw = 0.25;
/// Assumed direct-channel efficiency.
constexpr double kDirectEta = 0.92;

}  // namespace

void DutyCycleScheduler::begin_trace(const task::TaskGraph&,
                                     const nvp::NodeConfig&,
                                     const solar::SolarTrace&) {
  harvest_estimate_j_ = 0.0;
  harvest_seen_ = false;
  budget_j_ = 0.0;
  enabled_.clear();
}

nvp::PeriodPlan DutyCycleScheduler::begin_period(
    const nvp::PeriodContext& ctx) {
  const auto& graph = *ctx.graph;

  // Update the harvest estimate from the measured previous period.
  double last_j = 0.0;
  for (double p : ctx.last_period_solar_w) last_j += p * ctx.grid->dt_s;
  if (!ctx.last_period_solar_w.empty()) {
    harvest_estimate_j_ =
        harvest_seen_
            ? kHarvestEwma * last_j +
                  (1.0 - kHarvestEwma) * harvest_estimate_j_
            : last_j;
    harvest_seen_ = true;
  }

  // Budget: expected usable harvest plus a bounded storage withdrawal.
  budget_j_ = harvest_estimate_j_ * kDirectEta +
              kStorageDraw * ctx.bank->selected().deliverable_j();

  // Enable tasks in deadline order (most urgent first) while they fit; a
  // task's dependencies must already be enabled or it cannot complete.
  std::vector<std::size_t>& order = admission_.order;
  order.resize(graph.size());
  for (std::size_t i = 0; i < graph.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return graph.task(a).deadline_s < graph.task(b).deadline_s;
  });
  admit_in_order(graph, budget_j_, admission_, enabled_);

  nvp::PeriodPlan plan;
  plan.tasks_enabled = enabled_;
  return plan;
}

std::vector<std::size_t> DutyCycleScheduler::schedule_slot(
    const nvp::SlotContext& ctx) {
  // EDF over the enabled subset, shedding to the supplyable load.
  const double max_load_w =
      ctx.pmu->supplyable_j(ctx.solar_w, *ctx.bank, ctx.grid->dt_s) /
      ctx.grid->dt_s;
  chosen_.clear();
  double committed_w = 0.0;
  for (const auto& list : candidates_by_nvp(*ctx.graph, *ctx.state,
                                            ctx.now_in_period_s, enabled_,
                                            scratch_)) {
    if (list.empty()) continue;
    const std::size_t head = list.front();
    if (committed_w + ctx.graph->task(head).power_w <= max_load_w) {
      chosen_.push_back(head);
      committed_w += ctx.graph->task(head).power_w;
    }
  }
  return chosen_;
}

}  // namespace solsched::sched
