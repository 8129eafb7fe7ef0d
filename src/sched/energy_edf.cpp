#include "sched/energy_edf.hpp"

#include <algorithm>
#include <cmath>

#include "sched/sched_util.hpp"

namespace solsched::sched {
namespace {

/// Assumed direct-channel efficiency on forecast harvest (matches
/// duty-cycle).
constexpr double kDirectEta = 0.92;
/// Safety margin: fraction of demand kept in hand before look-ahead allows
/// deferral.
constexpr double kReserve = 0.05;

/// Per-NVP EDF head candidates flattened into one cross-NVP EDF order
/// (earliest deadline first, ties: less remaining work, then id — the same
/// tie-breaks candidates_by_nvp applies within an NVP), into `s.heads`.
const std::vector<std::size_t>& edf_heads(const task::TaskGraph& graph,
                                          const task::PeriodState& state,
                                          double now_s,
                                          const std::vector<bool>& enabled,
                                          EdfHeadScratch& s) {
  s.heads.clear();
  for (const auto& list : candidates_by_nvp(graph, state, now_s, enabled, s.lm))
    if (!list.empty()) s.heads.push_back(list.front());
  std::sort(s.heads.begin(), s.heads.end(), [&](std::size_t a, std::size_t b) {
    const auto& ta = graph.task(a);
    const auto& tb = graph.task(b);
    if (ta.deadline_s != tb.deadline_s) return ta.deadline_s < tb.deadline_s;
    if (state.remaining_s(a) != state.remaining_s(b))
      return state.remaining_s(a) < state.remaining_s(b);
    return a < b;
  });
  return s.heads;
}

/// The PMU's supplyable load this slot (W).
double supplyable_w(const nvp::SlotContext& ctx) {
  return ctx.pmu->supplyable_j(ctx.solar_w, *ctx.bank, ctx.grid->dt_s) /
         ctx.grid->dt_s;
}

}  // namespace

// ---- CC-EDF ---------------------------------------------------------------

nvp::PeriodPlan CcEdfScheduler::begin_period(const nvp::PeriodContext&) {
  return {};  // All tasks, keep the capacitor: CC-EDF acts per slot.
}

std::vector<std::size_t> CcEdfScheduler::schedule_slot(
    const nvp::SlotContext& ctx) {
  const auto& graph = *ctx.graph;
  const auto& state = *ctx.state;
  const double dt = ctx.grid->dt_s;
  const double max_load_w = supplyable_w(ctx);

  // Cycle-conserving requirement: the average power the *remaining* live
  // work needs to meet its deadlines from now. Completed or missed tasks
  // contribute nothing, so the requirement decays through the period.
  double required_w = 0.0;
  for (std::size_t id = 0; id < graph.size(); ++id) {
    if (state.completed(id) || state.missed(id)) continue;
    const double slack_s = graph.task(id).deadline_s - ctx.now_in_period_s;
    if (slack_s <= 0.0) continue;
    required_w += state.remaining_s(id) * graph.task(id).power_w /
                  std::max(slack_s, dt);
  }

  std::vector<std::size_t>& chosen = scratch_.chosen;
  chosen.clear();
  double committed_w = 0.0;
  for (std::size_t head :
       edf_heads(graph, state, ctx.now_in_period_s, {}, scratch_)) {
    const double p = graph.task(head).power_w;
    if (committed_w + p > max_load_w) continue;  // Would brown the node out.
    const bool forced =
        is_forced(graph, state, head, ctx.now_in_period_s, dt);
    if (forced || committed_w + p <= required_w) {
      chosen.push_back(head);
      committed_w += p;
    }
  }
  return chosen;
}

// ---- LA-EDF ---------------------------------------------------------------

nvp::PeriodPlan LaEdfScheduler::begin_period(const nvp::PeriodContext&) {
  return {};  // All tasks; the look-ahead happens per slot.
}

std::vector<std::size_t> LaEdfScheduler::schedule_slot(
    const nvp::SlotContext& ctx) {
  const auto& graph = *ctx.graph;
  const auto& state = *ctx.state;
  const double dt = ctx.grid->dt_s;
  const double max_load_w = supplyable_w(ctx);

  // Aggregate look-ahead: remaining energy demand of the live task set vs
  // what is in hand (deliverable storage) plus the forecast harvest up to
  // the latest live deadline.
  double demand_j = 0.0;
  double latest_deadline_s = ctx.now_in_period_s;
  for (std::size_t id = 0; id < graph.size(); ++id) {
    if (state.completed(id) || state.missed(id)) continue;
    if (graph.task(id).deadline_s <= ctx.now_in_period_s) continue;
    demand_j += state.remaining_s(id) * graph.task(id).power_w;
    latest_deadline_s = std::max(latest_deadline_s, graph.task(id).deadline_s);
  }
  const std::size_t horizon_slots = static_cast<std::size_t>(
      std::ceil((latest_deadline_s - ctx.now_in_period_s) / dt));
  const double forecast_j =
      ctx.predictor
          ? kDirectEta * ctx.predictor->predict_energy_j(horizon_slots, dt)
          : 0.0;
  const double available_j =
      ctx.bank->selected().deliverable_j() + forecast_j;
  const bool can_defer = available_j >= demand_j * (1.0 + kReserve);

  std::vector<std::size_t>& chosen = scratch_.chosen;
  chosen.clear();
  double committed_w = 0.0;
  for (std::size_t head :
       edf_heads(graph, state, ctx.now_in_period_s, {}, scratch_)) {
    const double p = graph.task(head).power_w;
    if (committed_w + p > max_load_w) continue;
    if (can_defer &&
        !is_forced(graph, state, head, ctx.now_in_period_s, dt))
      continue;  // Energy covers the plan: procrastinate, bank the harvest.
    chosen.push_back(head);
    committed_w += p;
  }
  return chosen;
}

// ---- Greedy energy feasibility --------------------------------------------

nvp::PeriodPlan GreedyFeasibleScheduler::begin_period(
    const nvp::PeriodContext& ctx) {
  const auto& graph = *ctx.graph;

  // Admission budget: forecast harvest over the whole period plus whatever
  // the selected capacitor can deliver right now.
  const double forecast_j =
      ctx.predictor ? kDirectEta * ctx.predictor->predict_energy_j(
                                       ctx.grid->n_slots, ctx.grid->dt_s)
                    : 0.0;
  budget_j_ = forecast_j + ctx.bank->selected().deliverable_j();

  // Enable jobs in deadline order while they (and their not-yet-enabled
  // dependency closure) fit the budget; jobs that do not fit are skipped —
  // spending energy on a task that cannot finish only starves the rest.
  std::vector<std::size_t>& order = admission_.order;
  order.resize(graph.size());
  for (std::size_t i = 0; i < graph.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (graph.task(a).deadline_s != graph.task(b).deadline_s)
      return graph.task(a).deadline_s < graph.task(b).deadline_s;
    return a < b;
  });
  admit_in_order(graph, budget_j_, admission_, enabled_);

  nvp::PeriodPlan plan;
  plan.tasks_enabled = enabled_;
  return plan;
}

std::vector<std::size_t> GreedyFeasibleScheduler::schedule_slot(
    const nvp::SlotContext& ctx) {
  // EDF over the admitted subset, shed to the supplyable load.
  const double max_load_w = supplyable_w(ctx);
  std::vector<std::size_t>& chosen = scratch_.chosen;
  chosen.clear();
  double committed_w = 0.0;
  for (std::size_t head : edf_heads(*ctx.graph, *ctx.state,
                                    ctx.now_in_period_s, enabled_, scratch_)) {
    const double p = ctx.graph->task(head).power_w;
    if (committed_w + p > max_load_w) continue;
    chosen.push_back(head);
    committed_w += p;
  }
  return chosen;
}

}  // namespace solsched::sched
