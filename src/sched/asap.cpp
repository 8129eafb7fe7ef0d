#include "sched/asap.hpp"

#include "sched/sched_util.hpp"

namespace solsched::sched {

nvp::PeriodPlan AsapScheduler::begin_period(const nvp::PeriodContext&) {
  return {};
}

std::vector<std::size_t> AsapScheduler::schedule_slot(
    const nvp::SlotContext& ctx) {
  const auto& graph = *ctx.graph;
  const auto& state = *ctx.state;
  chosen_.clear();

  if (only_live_) {
    for (const auto& list :
         candidates_by_nvp(graph, state, ctx.now_in_period_s, {}, scratch_))
      if (!list.empty()) chosen_.push_back(list.front());
    return chosen_;
  }

  // Pure ASAP: every ready incomplete task, earliest deadline first per NVP
  // (ties: lowest id), deadline passed or not.
  constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  best_.assign(graph.nvp_count(), kNone);
  for (std::size_t id = 0; id < graph.size(); ++id) {
    if (!state.ready(id)) continue;
    std::size_t& best = best_[graph.task(id).nvp];
    if (best == kNone ||
        graph.task(id).deadline_s < graph.task(best).deadline_s)
      best = id;
  }
  for (std::size_t id : best_)
    if (id != kNone) chosen_.push_back(id);
  return chosen_;
}

}  // namespace solsched::sched
