#include "sched/lsa_inter.hpp"

#include <cmath>

#include "sched/sched_util.hpp"

namespace solsched::sched {
namespace {

/// Extra slots of safety margin before a start becomes forced.
constexpr double kMarginSlots = 1.0;

}  // namespace

nvp::PeriodPlan LsaInterScheduler::begin_period(const nvp::PeriodContext&) {
  return {};
}

void lsa_slot_decision(const nvp::SlotContext& ctx,
                       const std::vector<bool>& enabled, double margin_slots,
                       LoadMatchScratch& scratch,
                       std::vector<std::size_t>& chosen) {
  const auto& graph = *ctx.graph;
  const auto& state = *ctx.state;
  const double dt = ctx.grid->dt_s;

  const auto& by_nvp =
      candidates_by_nvp(graph, state, ctx.now_in_period_s, enabled, scratch);

  chosen.clear();
  double committed_w = 0.0;
  const double max_load_w =
      ctx.pmu->supplyable_j(ctx.solar_w, *ctx.bank, dt) / dt;

  // Pass 1: forced starts (deadline pressure within the safety margin).
  for (const auto& list : by_nvp) {
    if (list.empty()) continue;
    const std::size_t head = list.front();
    if (latest_start_s(graph, state, head) <
            ctx.now_in_period_s + (1.0 + margin_slots) * dt &&
        committed_w + graph.task(head).power_w <= max_load_w) {
      chosen.push_back(head);
      committed_w += graph.task(head).power_w;
    }
  }

  // Pass 2: opportunistic starts.
  const double direct_budget_w = ctx.solar_w * ctx.pmu->config().direct_eta;
  for (const auto& list : by_nvp) {
    if (list.empty()) continue;
    const std::size_t head = list.front();
    bool already = false;
    for (std::size_t id : chosen) already = already || id == head;
    if (already) continue;
    const auto& t = graph.task(head);

    // (b) Free solar: present surplus covers the task's power.
    const bool solar_covers = committed_w + t.power_w <= direct_budget_w;

    // (c) WCMA says laziness won't pay: predicted harvest between now and
    // the deadline is below the remaining energy need, so waiting only adds
    // leakage — spend stored energy now.
    bool forecast_starved = false;
    if (!solar_covers) {
      const auto horizon = static_cast<std::size_t>(
          std::max(0.0, (t.deadline_s - ctx.now_in_period_s) / dt));
      const double predicted_j =
          ctx.predictor->predict_energy_j(horizon, dt) *
          ctx.pmu->config().direct_eta;
      const double need_j = state.remaining_s(head) * t.power_w;
      forecast_starved = predicted_j < need_j;
    }

    if ((solar_covers || forecast_starved) &&
        committed_w + t.power_w <= max_load_w) {
      chosen.push_back(head);
      committed_w += t.power_w;
    }
  }
}

std::vector<std::size_t> LsaInterScheduler::schedule_slot(
    const nvp::SlotContext& ctx) {
  lsa_slot_decision(ctx, {}, kMarginSlots, scratch_, chosen_);
  return chosen_;
}

}  // namespace solsched::sched
