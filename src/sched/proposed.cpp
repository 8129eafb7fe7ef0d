#include "sched/proposed.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "sched/intra_task.hpp"
#include "sched/lsa_inter.hpp"
#include "sched/sched_util.hpp"
#include "util/mathx.hpp"

namespace solsched::sched {

ProposedScheduler::ProposedScheduler(ProposedModel model,
                                     ProposedConfig config)
    : model_(std::move(model)), config_(config) {
  if (!model_.dbn) throw std::invalid_argument("ProposedScheduler: null DBN");
  if (!model_.input_norm.fitted())
    throw std::invalid_argument("ProposedScheduler: unfitted normalizer");
}

ann::Vector ProposedScheduler::build_input(const nvp::PeriodContext& ctx,
                                           std::size_t n_slots) {
  ann::Vector x;
  x.reserve(n_slots + ctx.bank->size() + 1);
  // Previous period's solar, zero-padded for the very first period.
  for (std::size_t m = 0; m < n_slots; ++m)
    x.push_back(m < ctx.last_period_solar_w.size()
                    ? ctx.last_period_solar_w[m]
                    : 0.0);
  for (double v : ctx.bank->voltages()) x.push_back(v);
  x.push_back(ctx.accumulated_dmr);
  return x;
}

nvp::PeriodPlan lsa_fallback_plan(const storage::CapacitorBank& bank,
                                  FallbackReason reason) {
  nvp::PeriodPlan plan;
  plan.used_fallback = true;
  plan.fallback_code = static_cast<int>(reason);
  // Keep the current capacitor unless it is stuck dead — then move to the
  // fullest live one so the baseline has storage to work with.
  const std::size_t current = bank.selected_index();
  if (bank.at(current).dead()) {
    std::size_t best = current;
    double best_e = -1.0;
    for (std::size_t h = 0; h < bank.size(); ++h) {
      if (bank.at(h).dead()) continue;
      const double e = bank.at(h).usable_energy_j();
      if (e > best_e) {
        best_e = e;
        best = h;
      }
    }
    if (best != current) plan.select_cap = best;
  }
  return plan;
}

nvp::PeriodPlan ProposedScheduler::fallback_plan(const nvp::PeriodContext& ctx,
                                                 FallbackReason reason) {
  ++fallback_count_;
  last_fallback_ = reason;
  // Empty te = all tasks; inter mode = the plain LSA baseline. With the
  // default margin this period is scheduled exactly as LsaInterScheduler
  // would (no scavenging pass runs, since nothing is off-te).
  active_te_.clear();
  intra_mode_ = false;

  nvp::PeriodPlan plan = lsa_fallback_plan(*ctx.bank, reason);
  OBS_COUNTER_ADD("sched.proposed.fallbacks", 1);
  return plan;
}

nvp::PeriodPlan ProposedScheduler::begin_period(const nvp::PeriodContext& ctx) {
  const std::size_t n_caps = model_.capacities_f.size();
  if (ctx.bank->size() != n_caps)
    throw std::logic_error("ProposedScheduler: bank/model capacitor mismatch");

  // --- Coarse-grained DBN analysis -----------------------------------
  const ann::Vector raw = build_input(ctx, model_.n_slots);
  const ann::Vector y = model_.dbn->predict(model_.input_norm.transform(raw));
  if (y.size() != n_caps + 1 + model_.n_tasks)
    throw std::logic_error("ProposedScheduler: DBN output width mismatch");

  // Decode: capacitor one-hot argmax, α de-squashed, te bits thresholded.
  std::size_t cap = 0;
  for (std::size_t h = 1; h < n_caps; ++h)
    if (y[h] > y[cap]) cap = h;
  double alpha = util::clamp(y[n_caps], 0.0, 1.0) * model_.alpha_cap;
  std::vector<bool> te(model_.n_tasks);
  for (std::size_t n = 0; n < model_.n_tasks; ++n)
    te[n] = config_.ignore_te || y[n_caps + 1 + n] > 0.5;

  // Injected controller corruption, applied *before* validation so the
  // degradation path sees exactly what a glitched controller would hand it.
  if (faults_ != nullptr && faults_->active()) {
    const std::size_t flat = ctx.grid->flat_period(ctx.day, ctx.period);
    switch (faults_->controller_fault(flat)) {
      case fault::ControllerFault::kNone: break;
      case fault::ControllerFault::kNonFinite:
        alpha = std::numeric_limits<double>::quiet_NaN();
        break;
      case fault::ControllerFault::kAlphaRange:
        alpha = -4.0 * model_.alpha_cap - 1.0;
        break;
      case fault::ControllerFault::kEmptyTe:
        te.assign(model_.n_tasks, false);
        break;
      case fault::ControllerFault::kCapRange:
        cap = n_caps + 7;
        break;
    }
  }

  last_ = Decoded{cap, alpha, te};
  active_te_ = te;

  // --- Validation and graceful degradation (DESIGN.md §11) -----------
  // A plan that fails any check is abandoned for this period in favour of
  // the LSA inter-task baseline over all tasks: predictable, model-free,
  // and strictly better than acting on a corrupt plan. Guarded by an
  // active injector: natural decodes are structurally in range already
  // (alpha clamped, cap argmax-bounded, a degenerate te still scavenges),
  // so fault-free runs stay bit-identical to the scheduler without these
  // hooks, as the simulator's no-plan contract promises.
  if (faults_ != nullptr && faults_->active()) {
    FallbackReason reason = FallbackReason::kNone;
    if (!std::isfinite(alpha)) {
      reason = FallbackReason::kNonFinite;
    } else if (alpha < 0.0 || alpha > model_.alpha_cap) {
      reason = FallbackReason::kAlphaRange;
    } else if (cap >= n_caps || ctx.bank->at(cap).dead()) {
      reason = FallbackReason::kDeadCap;
    } else if (model_.n_tasks > 0 &&
               std::none_of(te.begin(), te.end(), [](bool b) { return b; })) {
      reason = FallbackReason::kDegenerateTe;
    }
    if (reason != FallbackReason::kNone) return fallback_plan(ctx, reason);
  }

  // --- Capacitor selection -------------------------------------------
  // Eq. 22 gate: switching away from a charged capacitor wastes it, so a
  // switch is allowed only when the selected one is nearly drained — plus
  // the greedy-bank extension for full capacitors under surplus.
  nvp::PeriodPlan plan;
  const std::size_t current = ctx.bank->selected_index();
  const double current_energy_j = ctx.bank->at(current).usable_energy_j();
  if (current_energy_j < config_.e_th_j) {
    std::size_t target = cap;
    if (config_.greedy_bank) {
      // Drain the bank capacitor by capacitor: pick the fullest; fall back
      // to the DBN's choice when the whole bank is empty.
      std::size_t fullest = 0;
      for (std::size_t h = 1; h < ctx.bank->size(); ++h)
        if (ctx.bank->at(h).usable_energy_j() >
            ctx.bank->at(fullest).usable_energy_j())
          fullest = h;
      if (ctx.bank->at(fullest).usable_energy_j() >= config_.e_th_j)
        target = fullest;
    }
    if (target != current) plan.select_cap = target;
  } else if (config_.greedy_bank && alpha < 1.0) {
    // Surplus period and the capacitor is nearly full: bank the rest of
    // the harvest in the emptiest-headroom-rich capacitor instead of
    // spilling it. The charged capacitor keeps its energy for later.
    const auto& sel = ctx.bank->at(current);
    if (sel.headroom_j() <
        config_.fill_fraction * sel.max_usable_energy_j()) {
      std::size_t roomiest = current;
      for (std::size_t h = 0; h < ctx.bank->size(); ++h)
        if (ctx.bank->at(h).headroom_j() >
            ctx.bank->at(roomiest).headroom_j())
          roomiest = h;
      if (roomiest != current) plan.select_cap = roomiest;
    }
  }

  // --- δ rule: pick the fine-grained mode for this period. -----------
  switch (config_.mode) {
    case ModeOverride::kAuto:
      intra_mode_ = std::fabs(1.0 - alpha) <= config_.delta;
      break;
    case ModeOverride::kInter: intra_mode_ = false; break;
    case ModeOverride::kIntra: intra_mode_ = true; break;
  }

  // The te set steers prioritization inside schedule_slot; the engine sees
  // everything enabled so off-te tasks may scavenge free solar surplus
  // (mirrors the optimal scheduler's execution and makes a mispredicted te
  // recoverable).
  return plan;
}

std::vector<std::size_t> ProposedScheduler::schedule_slot(
    const nvp::SlotContext& ctx) {
  const auto& graph = *ctx.graph;
  const double direct_budget_w = ctx.solar_w * ctx.pmu->config().direct_eta;

  std::vector<std::size_t>& chosen = chosen_;
  if (intra_mode_)
    IntraTaskScheduler::match_load(ctx, active_te_, direct_budget_w, scratch_,
                                   chosen);
  else
    lsa_slot_decision(ctx, active_te_, config_.margin_slots, scratch_, chosen);

  // Scavenging pass: tasks outside te may run on *free solar only*, on NVPs
  // the te set left idle — never on stored energy, so the DBN's long-term
  // energy plan is unaffected.
  double committed_w = 0.0;
  for (std::size_t id : chosen) committed_w += graph.task(id).power_w;
  off_te_.assign(graph.size(), false);
  bool any_off = false;
  for (std::size_t id = 0; id < graph.size(); ++id) {
    off_te_[id] = !active_te_.empty() && !active_te_[id];
    any_off = any_off || off_te_[id];
  }
  if (any_off) {
    nvp_busy_.assign(graph.nvp_count(), false);
    for (std::size_t id : chosen) nvp_busy_[graph.task(id).nvp] = true;
    for (const auto& list : candidates_by_nvp(graph, *ctx.state,
                                              ctx.now_in_period_s, off_te_,
                                              scratch_)) {
      if (list.empty()) continue;
      const std::size_t head = list.front();
      if (nvp_busy_[graph.task(head).nvp]) continue;
      if (committed_w + graph.task(head).power_w <= direct_budget_w) {
        chosen.push_back(head);
        committed_w += graph.task(head).power_w;
        nvp_busy_[graph.task(head).nvp] = true;
      }
    }
  }
  return chosen;
}

}  // namespace solsched::sched
