#include "sched/period_optimizer.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <stdexcept>
#include <string>

#include "obs/metrics.hpp"
#include "sched/sched_util.hpp"
#include "storage/cap_bank.hpp"
#include "task/period_state.hpp"
#include "util/thread_pool.hpp"

namespace solsched::sched {

namespace {

std::uint64_t mask_of(const std::vector<bool>& subset) {
  std::uint64_t mask = 0;
  for (std::size_t id = 0; id < subset.size(); ++id)
    if (subset[id]) mask |= std::uint64_t{1} << id;
  return mask;
}

/// Oracle suffix sums: solar energy from slot m to the end of the period.
/// Depends only on solar_w, so every subset of a batch shares it.
std::vector<double> suffix_sums(const std::vector<double>& solar_w,
                                double dt_s) {
  std::vector<double> suffix_j(solar_w.size() + 1, 0.0);
  for (std::size_t m = solar_w.size(); m-- > 0;)
    suffix_j[m] = suffix_j[m + 1] + solar_w[m] * dt_s;
  return suffix_j;
}

/// What the reduction reads of one subset's evaluation, besides its alpha.
struct Summary {
  std::size_t misses = 0;
  double consumed_cap_j = 0.0;
  double final_usable_j = 0.0;
  double final_voltage_v = 0.0;
};

/// The simulated state a group of subsets shares: the selected capacitor's
/// voltage, the period's task state, the energy accumulators, and the live
/// list of the slot being simulated.
struct Frame {
  explicit Frame(const task::TaskGraph& graph) : state(graph) {}

  double voltage_v = 0.0;
  task::PeriodState state;
  double migrated_in_j = 0.0;
  double cap_supplied_j = 0.0;
  std::vector<std::size_t> live;
};

}  // namespace

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
      dt_s_(dt_s) {
  if (graph.size() >= 64)
    throw std::invalid_argument(
        "PeriodOptimizer: the subset sweep packs subsets into 64-bit masks; "
        "got " + std::to_string(graph.size()) + " tasks");
  closed_ = closed_subsets(graph);
  std::uint64_t root_mask = 0;
  for (std::size_t id = 0; id < graph.size(); ++id)
    if (graph.pred_mask(id) == 0) root_mask |= std::uint64_t{1} << id;
  // Slot-0 groups: the subsets' root-task bits, largest group first (ties
  // by root bits). The sweep starts its jobs in this order, so the longest
  // walks do not start last and stretch the region.
  std::vector<std::pair<std::uint64_t, std::size_t>> groups;  // (roots, size)
  for (const std::vector<bool>& subset : closed_) {
    closed_masks_.push_back(mask_of(subset));
    const std::uint64_t roots = closed_masks_.back() & root_mask;
    const auto it =
        std::find_if(groups.begin(), groups.end(),
                     [&](const auto& g) { return g.first == roots; });
    if (it == groups.end())
      groups.emplace_back(roots, 1);
    else
      ++it->second;
  }
  std::sort(groups.begin(), groups.end(), [](const auto& a, const auto& b) {
    return a.second != b.second ? a.second > b.second : a.first < b.first;
  });
  for (const auto& [roots, size] : groups) {
    group_begin_.push_back(group_members_.size());
    for (std::size_t i = 0; i < closed_.size(); ++i)
      if ((closed_masks_[i] & root_mask) == roots)
        group_members_.push_back(static_cast<std::uint32_t>(i));
  }
  group_begin_.push_back(group_members_.size());
}

struct PeriodOptimizer::Sweep {
  const std::vector<double>& solar_w;
  const std::vector<double>& suffix_j;
  std::span<const std::vector<bool>> subsets;
  std::span<const std::uint64_t> masks;
  Summary* out;  ///< One summary per subset.
  /// Chosen tasks per slot, or null (a one-subset walk only).
  std::vector<std::vector<std::size_t>>* slots;
};

struct PeriodOptimizer::WalkScratch {
  storage::CapacitorBank bank;
  const storage::Pmu pmu;
  double initial_usable_j = 0.0;
  /// frames[d] is walk depth d's state. A group of G members splits at
  /// most G - 1 levels deep, so reserving G keeps the frames in place.
  std::vector<Frame> frames;
  std::vector<bool> must_run;
  LoadMatchScratch lm;
  std::vector<std::size_t> chosen;
  std::size_t slot_steps = 0;  ///< Scheduling-path slots simulated.

  WalkScratch(const PeriodOptimizer& opt, double capacity_f, double v0,
              std::size_t max_members)
      : bank({capacity_f}, opt.regulators_, opt.leakage_, opt.v_low_,
             opt.v_high_),
        pmu(opt.pmu_) {
    bank.selected().set_voltage(v0);
    initial_usable_j = bank.selected().usable_energy_j();
    frames.reserve(max_members);
    frames.emplace_back(*opt.graph_);
    frames.front().voltage_v = bank.selected().voltage_v();
  }
};

PeriodEval PeriodOptimizer::evaluate(const std::vector<bool>& te,
                                     const std::vector<double>& solar_w,
                                     double capacity_f, double v0) const {
  const std::vector<bool> enabled =
      te.empty() ? std::vector<bool>(graph_->size(), true) : te;
  const std::uint64_t mask = mask_of(enabled);
  const std::vector<double> suffix_j = suffix_sums(solar_w, dt_s_);
  WalkScratch scratch(*this, capacity_f, v0, 1);
  PeriodEval eval;
  eval.slots.resize(solar_w.size());
  Summary summary;
  const Sweep sweep{solar_w,
                    suffix_j,
                    std::span(&enabled, 1),
                    std::span(&mask, 1),
                    &summary,
                    &eval.slots};
  std::uint32_t member = 0;
  walk(sweep, scratch, 0, 0, std::span(&member, 1), false);

  const Frame& frame = scratch.frames.front();
  eval.misses = summary.misses;
  eval.dmr = frame.state.dmr();
  eval.te_completed = true;
  for (std::size_t id = 0; id < graph_->size(); ++id)
    if (enabled[id] && !frame.state.completed(id)) eval.te_completed = false;
  eval.consumed_cap_j = summary.consumed_cap_j;
  eval.final_usable_j = summary.final_usable_j;
  eval.final_voltage_v = summary.final_voltage_v;
  eval.alpha = alpha_index(*graph_, enabled, solar_w, dt_s_);
  eval.migrated_in_j = frame.migrated_in_j;
  eval.cap_supplied_j = frame.cap_supplied_j;
  return eval;
}

void PeriodOptimizer::walk(const Sweep& sweep, WalkScratch& scratch,
                           std::size_t depth, std::size_t m,
                           std::span<std::uint32_t> members,
                           bool slot_started) const {
  const task::TaskGraph& graph = *graph_;
  const std::vector<double>& solar_w = sweep.solar_w;
  const std::size_t n_slots = solar_w.size();
  storage::CapacitorBank& bank = scratch.bank;
  const storage::Pmu& pmu = scratch.pmu;
  Frame& frame = scratch.frames[depth];
  task::PeriodState& state = frame.state;

  for (; m < n_slots; ++m, slot_started = false) {
    const double now = static_cast<double>(m) * dt_s_;
    if (!slot_started) {
      state.mark_deadlines(now);
      state.live_ready_tasks_into(now, frame.live);
    }
    // The slot reads a member's enabled bits only for live tasks (the
    // starvation pass, the load-match candidates and the check below), so
    // members that agree on those bits run the same operations. Where they
    // disagree, order them by those bits (insertion sort: stable, no
    // allocation) and run every class but the last on a copy of the state.
    std::uint64_t live_mask = 0;
    for (std::size_t id : frame.live) live_mask |= std::uint64_t{1} << id;
    const auto live_bits = [&](std::uint32_t i) {
      return sweep.masks[i] & live_mask;
    };
    const std::uint64_t first_bits = live_bits(members.front());
    if (std::any_of(members.begin() + 1, members.end(), [&](std::uint32_t i) {
          return live_bits(i) != first_bits;
        })) {
      for (std::size_t j = 1; j < members.size(); ++j) {
        const std::uint32_t v = members[j];
        std::size_t i = j;
        for (; i > 0 && live_bits(v) < live_bits(members[i - 1]); --i)
          members[i] = members[i - 1];
        members[i] = v;
      }
      std::size_t lo = 0;
      for (std::size_t hi = 1; hi < members.size(); ++hi) {
        if (live_bits(members[hi]) == live_bits(members[lo])) continue;
        if (scratch.frames.size() == depth + 1)
          scratch.frames.push_back(frame);
        else
          scratch.frames[depth + 1] = frame;
        walk(sweep, scratch, depth + 1, m, members.subspan(lo, hi - lo),
             true);
        lo = hi;
      }
      members = members.subspan(lo);
    }

    // Once no member task is live, none ever is again: readiness needs a
    // member predecessor to run, and deadlines only pass. The rest of the
    // period is the idle tail below.
    if (live_bits(members.front()) == 0) break;
    const std::vector<bool>& enabled = sweep.subsets[members.front()];

    // Oracle starvation forcing: a task whose remaining harvest (through
    // the direct channel, up to its deadline) cannot cover its remaining
    // energy must start on stored energy now, before leakage taxes it.
    std::vector<bool>& must_run = scratch.must_run;
    must_run.assign(graph.size(), false);
    for (std::size_t id : frame.live) {
      if (!enabled[id]) continue;
      const auto& t = graph.task(id);
      const auto dl_slot = std::min(
          n_slots,
          static_cast<std::size_t>(std::max(0.0, t.deadline_s / dt_s_ + 0.5)));
      const double future_j =
          (sweep.suffix_j[m] - sweep.suffix_j[std::max(dl_slot, m)]) *
          pmu_.direct_eta;
      if (future_j < state.remaining_s(id) * t.power_w) must_run[id] = true;
    }

    // Intra-style placement: match the chosen load to the free solar budget
    // (storage traffic is priced by the mismatch), with forced/starved tasks
    // always included.
    bank.selected().set_voltage(frame.voltage_v);
    const double direct_budget_w = solar_w[m] * pmu_.direct_eta;
    const double max_load_w =
        pmu.supplyable_j(solar_w[m], bank, dt_s_) / dt_s_;
    std::vector<std::size_t>& chosen = scratch.chosen;
    load_match_decision(graph, state, frame.live, now, dt_s_, enabled,
                        direct_budget_w, must_run, max_load_w, scratch.lm,
                        chosen);
    double committed_w = 0.0;
    for (std::size_t id : chosen) committed_w += graph.task(id).power_w;

    const storage::SlotFlow flow =
        pmu.run_slot(solar_w[m], committed_w, bank, dt_s_);
    frame.voltage_v = bank.selected().voltage_v();
    if (!flow.brownout)
      for (std::size_t id : chosen) state.execute(id, dt_s_);
    frame.migrated_in_j += flow.migrated_in_j;
    frame.cap_supplied_j += flow.cap_supplied_j;
    if (sweep.slots != nullptr && !flow.brownout) (*sweep.slots)[m] = chosen;
    ++scratch.slot_steps;
  }

  // Idle tail, once per leaf: the capacitor still harvests and leaks with
  // no load, and the final mark_deadlines misses whatever is unfinished.
  bank.selected().set_voltage(frame.voltage_v);
  for (; m < n_slots; ++m) {
    const storage::SlotFlow flow = pmu.run_slot(solar_w[m], 0.0, bank, dt_s_);
    frame.migrated_in_j += flow.migrated_in_j;
    frame.cap_supplied_j += flow.cap_supplied_j;
  }
  frame.voltage_v = bank.selected().voltage_v();
  state.mark_deadlines(static_cast<double>(n_slots) * dt_s_);

  const std::size_t misses = state.miss_count();
  const double final_usable_j = bank.selected().usable_energy_j();
  for (std::uint32_t i : members)
    sweep.out[i] = Summary{misses, scratch.initial_usable_j - final_usable_j,
                           final_usable_j, frame.voltage_v};
}

namespace {

/// Best option per miss count over one key's summaries, walked in subset
/// order: smaller E^c wins, ties go to higher final energy and then to the
/// earliest subset. Sorted by ascending miss count.
std::vector<PeriodOption> reduce_in_subset_order(
    const Summary* evals, const std::vector<double>& alphas,
    const std::vector<std::vector<bool>>& subsets, std::size_t n_tasks) {
  std::vector<PeriodOption> best(n_tasks + 1);
  std::vector<bool> seen(n_tasks + 1, false);
  for (std::size_t i = 0; i < subsets.size(); ++i) {
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
                             alphas[i],
                             subsets[i]};
    }
  }
  std::vector<PeriodOption> out;
  for (std::size_t k = 0; k < best.size(); ++k)
    if (seen[k]) out.push_back(std::move(best[k]));
  return out;
}

}  // namespace

std::vector<PeriodOption> PeriodOptimizer::pareto_options(
    const std::vector<double>& solar_w, double capacity_f, double v0) const {
  const OptionKey key{capacity_f, v0};
  return std::move(pareto_options(solar_w, std::span(&key, 1)).front());
}

std::vector<std::vector<PeriodOption>> PeriodOptimizer::pareto_options(
    const std::vector<double>& solar_w,
    std::span<const OptionKey> keys) const {
  const std::size_t n = closed_.size();
  const std::size_t n_groups = group_begin_.size() - 1;
  OBS_COUNTER_ADD("sched.pareto.calls", keys.size());
  OBS_COUNTER_ADD("sched.pareto.subset_evals", keys.size() * n);
  const std::vector<double> suffix_j = suffix_sums(solar_w, dt_s_);
  std::vector<double> alphas(n);
  for (std::size_t i = 0; i < n; ++i)
    alphas[i] = alpha_index(*graph_, closed_[i], solar_w, dt_s_);
  // Per-subset summaries land in pre-sized per-(key, subset) slots; the
  // walk's sharing never changes a subset's operations, so the group
  // geometry never changes the outcome. The thread that finishes a key's
  // last group reduces it, so a key's option set is ready as soon as its
  // subsets are and is allocated on a worker, not all on the caller.
  std::vector<Summary> evals(keys.size() * n);
  std::vector<std::atomic<std::size_t>> groups_left(keys.size());
  for (auto& left : groups_left)
    left.store(n_groups, std::memory_order_relaxed);
  std::vector<std::vector<PeriodOption>> out(keys.size());
  // Group-major, so every key's largest group starts before any smaller one.
  util::parallel_for(keys.size() * n_groups, [&](std::size_t job) {
    const std::size_t g = job / keys.size();
    const std::size_t k = job % keys.size();
    std::vector<std::uint32_t> members(
        group_members_.begin() + static_cast<std::ptrdiff_t>(group_begin_[g]),
        group_members_.begin() +
            static_cast<std::ptrdiff_t>(group_begin_[g + 1]));
    WalkScratch scratch(*this, keys[k].capacity_f, keys[k].v0,
                        members.size());
    Summary* key_evals = evals.data() + k * n;
    const Sweep sweep{solar_w, suffix_j, closed_, closed_masks_, key_evals,
                      /*slots=*/nullptr};
    walk(sweep, scratch, 0, 0, members, false);
    OBS_COUNTER_ADD("sched.pareto.slot_steps", scratch.slot_steps);
    // acq_rel: the last group sees every other group's summaries.
    if (groups_left[k].fetch_sub(1, std::memory_order_acq_rel) == 1)
      out[k] = reduce_in_subset_order(key_evals, alphas, closed_,
                                      graph_->size());
  });
  return out;
}

}  // namespace solsched::sched
