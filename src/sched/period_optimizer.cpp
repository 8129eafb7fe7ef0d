#include "sched/period_optimizer.hpp"

#include <algorithm>
#include <cmath>

#include "obs/metrics.hpp"
#include "sched/sched_util.hpp"
#include "storage/cap_bank.hpp"
#include "task/period_state.hpp"
#include "util/thread_pool.hpp"

namespace solsched::sched {

PeriodOptimizer::PeriodOptimizer(const task::TaskGraph& graph,
                                 storage::PmuConfig pmu,
                                 storage::RegulatorModel regulators,
                                 storage::LeakageModel leakage, double v_low,
                                 double v_high, double dt_s)
    : graph_(&graph),
      pmu_(pmu),
      regulators_(std::move(regulators)),
      leakage_(leakage),
      v_low_(v_low),
      v_high_(v_high),
      dt_s_(dt_s),
      closed_(closed_subsets(graph)) {}

struct PeriodOptimizer::EvalScratch {
  storage::CapacitorBank bank;
  task::PeriodState state;
  std::vector<bool> all_enabled;
  std::vector<bool> must_run;
  LoadMatchScratch lm;
  std::vector<std::size_t> chosen;
  std::vector<double> suffix_j;

  EvalScratch(const PeriodOptimizer& opt, double capacity_f,
              const std::vector<double>& solar_w)
      : bank({capacity_f}, opt.regulators_, opt.leakage_, opt.v_low_,
             opt.v_high_),
        state(*opt.graph_) {
    // Oracle suffix sums: solar energy from slot m to the end of the
    // period. Depends only on solar_w, so all subset evaluations share it.
    const std::size_t n_slots = solar_w.size();
    suffix_j.assign(n_slots + 1, 0.0);
    for (std::size_t m = n_slots; m-- > 0;)
      suffix_j[m] = suffix_j[m + 1] + solar_w[m] * opt.dt_s_;
  }
};

PeriodEval PeriodOptimizer::evaluate(const std::vector<bool>& te,
                                     const std::vector<double>& solar_w,
                                     double capacity_f, double v0) const {
  EvalScratch scratch(*this, capacity_f, solar_w);
  return evaluate_with(te, solar_w, v0, /*record_slots=*/true, scratch);
}

PeriodEval PeriodOptimizer::evaluate_with(const std::vector<bool>& te,
                                          const std::vector<double>& solar_w,
                                          double v0, bool record_slots,
                                          EvalScratch& scratch) const {
  const task::TaskGraph& graph = *graph_;
  const std::size_t n_slots = solar_w.size();
  if (te.empty()) scratch.all_enabled.assign(graph.size(), true);
  const std::vector<bool>& enabled = te.empty() ? scratch.all_enabled : te;

  storage::CapacitorBank& bank = scratch.bank;
  bank.selected().set_voltage(v0);
  const double initial_usable = bank.selected().usable_energy_j();
  const storage::Pmu pmu(pmu_);

  task::PeriodState& state = scratch.state;
  state.reset();
  PeriodEval eval;
  if (record_slots) eval.slots.resize(n_slots);

  std::vector<bool>& must_run = scratch.must_run;
  LoadMatchScratch& lm_scratch = scratch.lm;
  std::vector<std::size_t>& chosen = scratch.chosen;
  const std::vector<double>& suffix_j = scratch.suffix_j;

  for (std::size_t m = 0; m < n_slots; ++m) {
    const double now = static_cast<double>(m) * dt_s_;
    state.mark_deadlines(now);

    // Oracle starvation forcing: a task whose remaining harvest (through
    // the direct channel, up to its deadline) cannot cover its remaining
    // energy must start on stored energy now, before leakage taxes it.
    // The live-ready list is computed once per slot and shared with the
    // load-match decision below.
    state.live_ready_tasks_into(now, lm_scratch.live);
    must_run.assign(graph.size(), false);
    for (std::size_t id : lm_scratch.live) {
      if (!enabled[id]) continue;
      const auto& t = graph.task(id);
      const auto dl_slot = std::min(
          n_slots,
          static_cast<std::size_t>(std::max(0.0, t.deadline_s / dt_s_ + 0.5)));
      const double future_j =
          (suffix_j[m] - suffix_j[std::max(dl_slot, m)]) * pmu_.direct_eta;
      if (future_j < state.remaining_s(id) * t.power_w) must_run[id] = true;
    }

    // Intra-style placement: match the chosen load to the free solar budget
    // (storage traffic is priced by the mismatch), with forced/starved tasks
    // always included.
    const double direct_budget_w = solar_w[m] * pmu_.direct_eta;
    const double max_load_w =
        pmu.supplyable_j(solar_w[m], bank, dt_s_) / dt_s_;
    load_match_decision(graph, state, lm_scratch.live, now, dt_s_, enabled,
                        direct_budget_w, must_run, max_load_w, lm_scratch,
                        chosen);
    double committed_w = 0.0;
    for (std::size_t id : chosen) committed_w += graph.task(id).power_w;

    const storage::SlotFlow flow =
        pmu.run_slot(solar_w[m], committed_w, bank, dt_s_);
    if (!flow.brownout)
      for (std::size_t id : chosen) state.execute(id, dt_s_);
    eval.migrated_in_j += flow.migrated_in_j;
    eval.cap_supplied_j += flow.cap_supplied_j;
    if (record_slots)
      eval.slots[m] = flow.brownout ? std::vector<std::size_t>{} : chosen;
  }

  const double period_end = static_cast<double>(n_slots) * dt_s_;
  state.mark_deadlines(period_end);

  eval.misses = state.miss_count();
  eval.dmr = state.dmr();
  eval.te_completed = true;
  for (std::size_t id = 0; id < graph.size(); ++id)
    if (enabled[id] && !state.completed(id)) eval.te_completed = false;
  eval.final_usable_j = bank.selected().usable_energy_j();
  eval.final_voltage_v = bank.selected().voltage_v();
  eval.consumed_cap_j = initial_usable - eval.final_usable_j;
  eval.alpha = alpha_index(graph, enabled, solar_w, dt_s_);
  return eval;
}

std::vector<PeriodOption> PeriodOptimizer::pareto_options(
    const std::vector<double>& solar_w, double capacity_f, double v0) const {
  OBS_COUNTER_ADD("sched.pareto.calls", 1);
  OBS_COUNTER_ADD("sched.pareto.subset_evals", closed_.size());
  // best option per miss count; prefer smaller E^c, tie-break on higher
  // final energy.
  std::vector<PeriodOption> best(graph_->size() + 1);
  std::vector<bool> seen(graph_->size() + 1, false);

  // Per-subset summaries land in pre-sized slots; the reduction below runs
  // serially in subset order, so the winner per miss count (including the
  // keep-the-earliest tie rule) matches the seed's serial sweep exactly,
  // at any thread count.
  struct Summary {
    std::size_t misses = 0;
    double consumed_cap_j = 0.0;
    double final_usable_j = 0.0;
    double final_voltage_v = 0.0;
    double alpha = 0.0;
  };
  std::vector<Summary> evals(closed_.size());
  // Chunked fan-out: one EvalScratch per chunk (bank + state + buffers are
  // expensive to build per subset), indices within a chunk evaluated
  // serially against it. Results land in per-index slots, so the chunk
  // geometry never changes the outcome.
  const std::size_t n = closed_.size();
  const std::size_t n_chunks =
      std::max<std::size_t>(1, std::min(n, util::ThreadPool::global().size()));
  util::parallel_for(n_chunks, [&](std::size_t c) {
    EvalScratch scratch(*this, capacity_f, solar_w);
    const std::size_t lo = c * n / n_chunks;
    const std::size_t hi = (c + 1) * n / n_chunks;
    for (std::size_t i = lo; i < hi; ++i) {
      const PeriodEval eval = evaluate_with(closed_[i], solar_w, v0,
                                            /*record_slots=*/false, scratch);
      evals[i] = Summary{eval.misses, eval.consumed_cap_j, eval.final_usable_j,
                         eval.final_voltage_v, eval.alpha};
    }
  });

  for (std::size_t i = 0; i < closed_.size(); ++i) {
    const Summary& eval = evals[i];
    const std::size_t k = eval.misses;
    if (k >= best.size()) continue;
    const bool better =
        !seen[k] || eval.consumed_cap_j < best[k].consumed_cap_j - 1e-12 ||
        (std::fabs(eval.consumed_cap_j - best[k].consumed_cap_j) <= 1e-12 &&
         eval.final_usable_j > best[k].final_usable_j);
    if (better) {
      seen[k] = true;
      best[k] = PeriodOption{k,
                             eval.consumed_cap_j,
                             eval.final_usable_j,
                             eval.final_voltage_v,
                             eval.alpha,
                             closed_[i]};
    }
  }

  std::vector<PeriodOption> out;
  for (std::size_t k = 0; k < best.size(); ++k)
    if (seen[k]) out.push_back(std::move(best[k]));
  return out;
}

}  // namespace solsched::sched
