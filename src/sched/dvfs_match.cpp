#include "sched/dvfs_match.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace solsched::sched {

void DvfsLoadMatcher::begin_trace(const task::TaskGraph& /*graph*/,
                                  const nvp::NodeConfig& config,
                                  const solar::SolarTrace& /*trace*/) {
  model_ = config.dvfs;
}

nvp::PeriodPlan DvfsLoadMatcher::begin_period(const nvp::PeriodContext&) {
  return {};  // All tasks, keep the capacitor: matching happens per slot.
}

std::vector<std::size_t> DvfsLoadMatcher::schedule_slot(
    const nvp::SlotContext& ctx) {
  if (ctx.frequencies == nullptr)
    throw std::logic_error("dvfs-match needs SlotContext::frequencies");
  const auto& graph = *ctx.graph;
  const auto& state = *ctx.state;
  const double dt = ctx.grid->dt_s;
  const double target_w = ctx.solar_w * ctx.pmu->config().direct_eta;
  const double max_load_w =
      ctx.pmu->supplyable_j(ctx.solar_w, *ctx.bank, dt) / dt;

  // Per NVP: the EDF head plus the rate it needs.
  heads_.clear();
  for (const auto& list :
       candidates_by_nvp(graph, state, ctx.now_in_period_s, {}, scratch_)) {
    if (list.empty()) continue;
    const std::size_t id = list.front();
    const double time_left = graph.task(id).deadline_s - ctx.now_in_period_s;
    const double remaining = state.remaining_s(id);
    // Work rate needed from now on to finish by the deadline.
    const double required = time_left > 0.0 ? remaining / time_left : 2.0;
    // Forced when even full speed leaves no slack beyond this slot.
    const bool forced = remaining > (time_left - dt) + 1e-9;
    heads_.push_back({id, required, forced});
  }

  // Per-head options: off (frequency 0 marker) or any level that keeps the
  // deadline reachable; pick the combination whose scaled load is closest
  // to the solar target without exceeding the supplyable power.
  const std::size_t n = heads_.size();
  if (options_.size() < n) options_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<double>& options = options_[i];
    options.clear();
    if (!heads_[i].forced) options.push_back(0.0);  // Off is allowed.
    for (double f : model_.levels) {
      // Running below the required rate now only shrinks future slack;
      // allow it only when not forced (laziness), require >= when forced.
      if (heads_[i].forced && f + 1e-9 < std::min(heads_[i].min_required_f,
                                                  model_.levels.back()))
        continue;
      options.push_back(f);
    }
    if (options.empty()) options.push_back(model_.levels.back());
  }

  pick_.assign(n, 0);
  bool found = false;
  double best_cost = std::numeric_limits<double>::max();
  // Odometer enumeration over option combinations (<= 4^6 + forced limits).
  while (true) {
    double load_w = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double f = options_[i][pick_[i]];
      if (f > 0.0)
        load_w += graph.task(heads_[i].task).power_w * model_.power_scale(f);
    }
    if (load_w <= max_load_w + 1e-12) {
      const double cost = std::fabs(target_w - load_w);
      if (cost < best_cost - 1e-12) {
        best_cost = cost;
        best_pick_ = pick_;
        found = true;
      }
    }
    std::size_t i = 0;
    for (; i < n; ++i) {
      if (++pick_[i] < options_[i].size()) break;
      pick_[i] = 0;
    }
    if (i == n) break;
  }

  chosen_.clear();
  if (!found) return chosen_;  // Nothing feasible: idle slot.
  for (std::size_t i = 0; i < n; ++i) {
    const double f = options_[i][best_pick_[i]];
    if (f <= 0.0) continue;
    chosen_.push_back(heads_[i].task);
    ctx.frequencies->push_back(f);
  }
  return chosen_;
}

}  // namespace solsched::sched
