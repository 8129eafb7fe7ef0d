#include "sched/edf.hpp"

#include "sched/sched_util.hpp"

namespace solsched::sched {

nvp::PeriodPlan EdfScheduler::begin_period(const nvp::PeriodContext&) {
  return {};
}

std::vector<std::size_t> EdfScheduler::schedule_slot(
    const nvp::SlotContext& ctx) {
  chosen_.clear();
  for (const auto& list : candidates_by_nvp(*ctx.graph, *ctx.state,
                                            ctx.now_in_period_s, {}, scratch_))
    if (!list.empty()) chosen_.push_back(list.front());
  return chosen_;
}

}  // namespace solsched::sched
