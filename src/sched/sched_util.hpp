// Helpers shared by scheduling policies.
#pragma once

#include <cstddef>
#include <vector>

#include "task/period_state.hpp"
#include "task/task_graph.hpp"

namespace solsched::sched {

/// Reused buffers of the per-slot helpers below. The caller owns one per
/// decision stream (each policy instance, each period evaluation), so the
/// slot path allocates only while the buffers first grow to the graph's
/// size; refills are clear()+push_back within capacity. Not thread-safe:
/// one scratch per concurrent caller.
struct LoadMatchScratch {
  std::vector<std::size_t> live;
  std::vector<std::vector<std::size_t>> by_nvp;
  std::vector<std::size_t> heads;
  std::vector<bool> forced;
  std::vector<std::size_t> optional;  ///< Head indices the sweep varies.
};

/// Live, ready candidate tasks grouped by NVP, each NVP's list sorted by
/// earliest deadline first (ties: less remaining work first, then id).
/// Only tasks with `enabled` true are considered (empty mask = all).
/// Returns `scratch.by_nvp` (one list per NVP of `graph`), valid until the
/// scratch's next use.
const std::vector<std::vector<std::size_t>>& candidates_by_nvp(
    const task::TaskGraph& graph, const task::PeriodState& state,
    double now_s, const std::vector<bool>& enabled,
    LoadMatchScratch& scratch);

/// Latest slot-aligned start time after which `id` can no longer finish by
/// its deadline: deadline - remaining (s). Negative slack means the task can
/// no longer be saved.
double latest_start_s(const task::TaskGraph& graph,
                      const task::PeriodState& state, std::size_t id);

/// True if the task must run in the slot starting at now_s to have any
/// chance of meeting its deadline (slack smaller than one slot).
bool is_forced(const task::TaskGraph& graph, const task::PeriodState& state,
               std::size_t id, double now_s, double dt_s);

/// Dependency closure check: true if `subset` (bitmask vector) contains all
/// predecessors of each of its members.
bool dependency_closed(const task::TaskGraph& graph,
                       const std::vector<bool>& subset);

/// Enumerates all dependency-closed subsets of the task set. For N <= 8 this
/// is at most 256 masks, typically far fewer with chains.
std::vector<std::vector<bool>> closed_subsets(const task::TaskGraph& graph);

/// Per-slot load-matching decision shared by the intra-task baseline, the
/// period optimizer and the optimal scheduler: among each NVP's head
/// candidate, always runs tasks that are deadline-forced or listed in
/// `must_run` (empty = none), then picks the optional combination whose
/// total power is closest to `target_w` (more tasks win ties).
/// Combinations whose load exceeds `max_load_w` (the PMU's supplyable power
/// this slot) are infeasible: running them would brown the node out and
/// waste the slot entirely. If even the forced set exceeds the limit,
/// forced tasks are shed latest-deadline-first.
///
/// `live` must be state.live_ready_tasks(now_s); callers fill
/// `scratch.live` with live_ready_tasks_into and pass it, because the
/// oracle policies need that list for their must-run pass anyway. The
/// decision lands in `chosen` (cleared first).
void load_match_decision(const task::TaskGraph& graph,
                         const task::PeriodState& state,
                         const std::vector<std::size_t>& live, double now_s,
                         double dt_s, const std::vector<bool>& enabled,
                         double target_w, const std::vector<bool>& must_run,
                         double max_load_w, LoadMatchScratch& scratch,
                         std::vector<std::size_t>& chosen);

/// Reused buffers of admit_in_order.
struct AdmissionScratch {
  std::vector<std::size_t> order;  ///< Admission order; the caller fills it.
  std::vector<bool> visited;
  std::vector<std::size_t> closure;
};

/// Period-start admission shared by the duty-cycle and greedy policies:
/// walks `scratch.order` and enables each task together with its
/// not-yet-enabled dependency closure while the cumulative energy of the
/// enabled set fits `budget_j` (a task that does not fit is skipped, later
/// ones may still fit). `enabled` is resized to the graph and overwritten.
void admit_in_order(const task::TaskGraph& graph, double budget_j,
                    AdmissionScratch& scratch, std::vector<bool>& enabled);

/// The scheduling-pattern index α (Eq. 18): energy demanded by the subset /
/// solar energy supplied in the period. Returns a large sentinel (1e9) when
/// the period has no solar.
double alpha_index(const task::TaskGraph& graph,
                   const std::vector<bool>& subset,
                   const std::vector<double>& solar_slots_w, double dt_s);

}  // namespace solsched::sched
