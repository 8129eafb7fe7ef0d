#include "sched/intra_task.hpp"

#include "sched/sched_util.hpp"

namespace solsched::sched {

nvp::PeriodPlan IntraTaskScheduler::begin_period(const nvp::PeriodContext&) {
  return {};
}

void IntraTaskScheduler::match_load(const nvp::SlotContext& ctx,
                                    const std::vector<bool>& enabled,
                                    double target_w, LoadMatchScratch& scratch,
                                    std::vector<std::size_t>& chosen) {
  const double max_load_w =
      ctx.pmu->supplyable_j(ctx.solar_w, *ctx.bank, ctx.grid->dt_s) /
      ctx.grid->dt_s;
  ctx.state->live_ready_tasks_into(ctx.now_in_period_s, scratch.live);
  load_match_decision(*ctx.graph, *ctx.state, scratch.live,
                      ctx.now_in_period_s, ctx.grid->dt_s, enabled, target_w,
                      {}, max_load_w, scratch, chosen);
}

std::vector<std::size_t> IntraTaskScheduler::schedule_slot(
    const nvp::SlotContext& ctx) {
  // Match against the usable solar power through the direct channel.
  match_load(ctx, {}, ctx.solar_w * ctx.pmu->config().direct_eta, scratch_,
             chosen_);
  return chosen_;
}

}  // namespace solsched::sched
