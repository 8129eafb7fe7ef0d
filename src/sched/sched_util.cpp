#include "sched/sched_util.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace solsched::sched {

namespace {

/// Buckets an already-computed live-ready list by NVP and sorts each bucket
/// by (deadline, remaining, id). That key is a *total* order over distinct
/// tasks, so the sorted result is unique regardless of algorithm; the
/// buckets are tiny (one entry per live task of the NVP), making insertion
/// sort the cheapest correct choice.
void candidates_from_live(const task::TaskGraph& graph,
                          const task::PeriodState& state,
                          const std::vector<std::size_t>& live,
                          const std::vector<bool>& enabled,
                          LoadMatchScratch& s) {
  s.by_nvp.resize(graph.nvp_count());
  for (auto& list : s.by_nvp) list.clear();
  for (std::size_t id : live) {
    if (!enabled.empty() && !enabled[id]) continue;
    s.by_nvp[graph.task(id).nvp].push_back(id);
  }
  auto before = [&](std::size_t a, std::size_t b) {
    const auto& ta = graph.task(a);
    const auto& tb = graph.task(b);
    if (ta.deadline_s != tb.deadline_s) return ta.deadline_s < tb.deadline_s;
    if (state.remaining_s(a) != state.remaining_s(b))
      return state.remaining_s(a) < state.remaining_s(b);
    return a < b;
  };
  for (auto& list : s.by_nvp)
    for (std::size_t i = 1; i < list.size(); ++i) {
      const std::size_t v = list[i];
      std::size_t j = i;
      while (j > 0 && before(v, list[j - 1])) {
        list[j] = list[j - 1];
        --j;
      }
      list[j] = v;
    }
}

}  // namespace

const std::vector<std::vector<std::size_t>>& candidates_by_nvp(
    const task::TaskGraph& graph, const task::PeriodState& state,
    double now_s, const std::vector<bool>& enabled,
    LoadMatchScratch& scratch) {
  state.live_ready_tasks_into(now_s, scratch.live);
  candidates_from_live(graph, state, scratch.live, enabled, scratch);
  return scratch.by_nvp;
}

double latest_start_s(const task::TaskGraph& graph,
                      const task::PeriodState& state, std::size_t id) {
  return graph.task(id).deadline_s - state.remaining_s(id);
}

bool is_forced(const task::TaskGraph& graph, const task::PeriodState& state,
               std::size_t id, double now_s, double dt_s) {
  return latest_start_s(graph, state, id) < now_s + dt_s;
}

bool dependency_closed(const task::TaskGraph& graph,
                       const std::vector<bool>& subset) {
  for (std::size_t id = 0; id < graph.size(); ++id) {
    if (!subset[id]) continue;
    for (std::size_t p : graph.predecessors(id))
      if (!subset[p]) return false;
  }
  return true;
}

std::vector<std::vector<bool>> closed_subsets(const task::TaskGraph& graph) {
  const std::size_t n = graph.size();
  std::vector<std::vector<bool>> out;
  const std::size_t total = std::size_t{1} << n;
  for (std::size_t mask = 0; mask < total; ++mask) {
    std::vector<bool> subset(n);
    for (std::size_t i = 0; i < n; ++i) subset[i] = (mask >> i) & 1u;
    if (dependency_closed(graph, subset)) out.push_back(std::move(subset));
  }
  return out;
}

void load_match_decision(const task::TaskGraph& graph,
                         const task::PeriodState& state,
                         const std::vector<std::size_t>& live, double now_s,
                         double dt_s, const std::vector<bool>& enabled,
                         double target_w, const std::vector<bool>& must_run,
                         double max_load_w, LoadMatchScratch& scratch,
                         std::vector<std::size_t>& chosen) {
  candidates_from_live(graph, state, live, enabled, scratch);

  std::vector<std::size_t>& heads = scratch.heads;
  std::vector<bool>& forced = scratch.forced;
  heads.clear();
  forced.clear();
  double forced_w = 0.0;
  for (const auto& list : scratch.by_nvp) {
    if (list.empty()) continue;
    const std::size_t head = list.front();
    heads.push_back(head);
    const bool f = is_forced(graph, state, head, now_s, dt_s) ||
                   (!must_run.empty() && must_run[head]);
    forced.push_back(f);
    if (f) forced_w += graph.task(head).power_w;
  }

  // Shed forced tasks latest-deadline-first if even they exceed the
  // supplyable power (a brownout would waste the whole slot).
  while (forced_w > max_load_w + 1e-12) {
    int victim = -1;
    double latest = -1.0;
    for (std::size_t i = 0; i < heads.size(); ++i)
      if (forced[i] && graph.task(heads[i]).deadline_s > latest) {
        latest = graph.task(heads[i]).deadline_s;
        victim = static_cast<int>(i);
      }
    if (victim < 0) break;
    forced[static_cast<std::size_t>(victim)] = false;
    forced_w -= graph.task(heads[static_cast<std::size_t>(victim)]).power_w;
    // The shed task stays a (non-forced) candidate for the subset search.
  }

  // Subset sweep over the *optional* heads only. Forced heads are in every
  // combination, so the full 2^n sweep visits each distinct chosen set 2^f
  // times; enumerating the 2^(n-f) optional subsets visits each set exactly
  // once, in its first-occurrence order of the full sweep — which is what
  // the "strictly better, else more tasks" selection rule keys on, so the
  // winning set is unchanged.
  std::vector<std::size_t>& opt = scratch.optional;
  opt.clear();
  double base_w = 0.0;
  int base_count = 0;
  for (std::size_t i = 0; i < heads.size(); ++i) {
    if (forced[i]) {
      base_w += graph.task(heads[i]).power_w;
      ++base_count;
    } else {
      opt.push_back(i);
    }
  }
  const std::size_t m = opt.size();
  const std::size_t total = std::size_t{1} << m;
  std::size_t best_mask = 0;
  double best_cost = std::numeric_limits<double>::max();
  int best_count = -1;
  for (std::size_t mask = 0; mask < total; ++mask) {
    double load_w = base_w;
    int count = base_count;
    for (std::size_t b = 0; b < m; ++b) {
      if ((mask >> b) & 1u) {
        load_w += graph.task(heads[opt[b]]).power_w;
        ++count;
      }
    }
    if (load_w > max_load_w + 1e-12) continue;  // Would brown out.
    const double cost = std::fabs(target_w - load_w);
    if (cost < best_cost - 1e-12 ||
        (std::fabs(cost - best_cost) <= 1e-12 && count > best_count)) {
      best_cost = cost;
      best_count = count;
      best_mask = mask;
    }
  }

  chosen.clear();
  std::size_t b = 0;
  for (std::size_t i = 0; i < heads.size(); ++i) {
    if (forced[i]) {
      chosen.push_back(heads[i]);
    } else {
      if ((best_mask >> b) & 1u) chosen.push_back(heads[i]);
      ++b;
    }
  }
}

void admit_in_order(const task::TaskGraph& graph, double budget_j,
                    AdmissionScratch& scratch, std::vector<bool>& enabled) {
  enabled.assign(graph.size(), false);
  double committed_j = 0.0;
  for (std::size_t id : scratch.order) {
    // Cost of this task plus any not-yet-enabled dependencies; `visited`
    // keeps shared predecessors from being counted twice.
    double extra = 0.0;
    scratch.visited.assign(graph.size(), false);
    scratch.closure.assign(1, id);
    scratch.visited[id] = true;
    for (std::size_t i = 0; i < scratch.closure.size(); ++i) {
      const std::size_t t = scratch.closure[i];
      if (enabled[t]) continue;
      extra += graph.task(t).energy_j();
      for (std::size_t p : graph.predecessors(t)) {
        if (!enabled[p] && !scratch.visited[p]) {
          scratch.visited[p] = true;
          scratch.closure.push_back(p);
        }
      }
    }
    if (committed_j + extra <= budget_j) {
      for (std::size_t t : scratch.closure) enabled[t] = true;
      committed_j += extra;
    }
  }
}

double alpha_index(const task::TaskGraph& graph,
                   const std::vector<bool>& subset,
                   const std::vector<double>& solar_slots_w, double dt_s) {
  double demand_j = 0.0;
  for (std::size_t id = 0; id < graph.size(); ++id)
    if (subset[id]) demand_j += graph.task(id).energy_j();
  double supply_j = 0.0;
  for (double p : solar_slots_w) supply_j += p * dt_s;
  if (supply_j <= 0.0) return demand_j > 0.0 ? 1e9 : 0.0;
  return demand_j / supply_j;
}

}  // namespace solsched::sched
