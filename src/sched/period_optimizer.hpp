// Per-period minimum-energy scheduling (Eq. 15-18).
//
// Given a task subset te, the period's (oracle) solar slots and the selected
// capacitor's start state, finds a slot assignment that completes te's tasks
// by their deadlines while consuming as little capacitor energy as possible.
// Placement is greedy-lazy with full solar knowledge: run on free solar
// surplus whenever possible, otherwise as late as deadlines allow, spending
// stored energy early only when the remaining oracle harvest cannot cover a
// task. The paper's exact 2^(N·Ns) enumeration is replaced by this
// polynomial placement (documented in DESIGN.md); it reproduces the
// formulation's structure at a cost a DP over months can afford.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "storage/leakage.hpp"
#include "storage/pmu.hpp"
#include "storage/regulator.hpp"
#include "task/task_graph.hpp"

namespace solsched::sched {

/// Result of evaluating one (te, solar, capacitor) period.
struct PeriodEval {
  bool te_completed = false;   ///< Every te task met its deadline.
  std::size_t misses = 0;      ///< Deadline misses across the whole task set.
  double dmr = 0.0;            ///< misses / N (Eq. 16's DMR_{i,j}).
  double consumed_cap_j = 0.0; ///< E^c: net usable-energy decrease (Eq. 15,
                               ///< negative when the period net-charges).
  double final_usable_j = 0.0; ///< Usable energy left in the capacitor.
  double final_voltage_v = 0.0;
  double alpha = 0.0;          ///< Pattern index (Eq. 18).
  double migrated_in_j = 0.0;
  double cap_supplied_j = 0.0;
  std::vector<std::vector<std::size_t>> slots;  ///< Chosen tasks per slot.
};

/// One entry of the per-period Pareto frontier: for a given achievable miss
/// count, the minimum-E^c way to reach it.
struct PeriodOption {
  std::size_t misses = 0;
  double consumed_cap_j = 0.0;
  double final_usable_j = 0.0;
  double final_voltage_v = 0.0;
  double alpha = 0.0;
  std::vector<bool> te;
};

/// One (capacity, start voltage) request of a batched sweep; the keys of a
/// batch share the period's solar vector.
struct OptionKey {
  double capacity_f = 0.0;
  double v0 = 0.0;
};

/// Evaluates task subsets within one period over one capacitor.
class PeriodOptimizer {
 public:
  /// Throws std::invalid_argument for graphs of 64 or more tasks: the sweep
  /// keeps subsets as 64-bit masks.
  PeriodOptimizer(const task::TaskGraph& graph, storage::PmuConfig pmu,
                  storage::RegulatorModel regulators,
                  storage::LeakageModel leakage, double v_low, double v_high,
                  double dt_s);

  /// Simulates the period executing subset `te` (size N; empty = all tasks)
  /// with the greedy-lazy placement described above: the one-subset case
  /// of the sweep's walk, recording the chosen tasks per slot.
  PeriodEval evaluate(const std::vector<bool>& te,
                      const std::vector<double>& solar_w, double capacity_f,
                      double v0) const;

  /// Evaluates every dependency-closed subset and returns, for each
  /// achievable miss count, the option with the smallest E^c. Sorted by
  /// ascending miss count. The one-key case of the batched sweep below.
  std::vector<PeriodOption> pareto_options(const std::vector<double>& solar_w,
                                           double capacity_f, double v0) const;

  /// The sweep above for every key at once, results in key order. Subsets
  /// that agree on every task live so far share one simulated prefix (see
  /// DESIGN.md, "Shared-prefix sweep"): one util::parallel_for region runs
  /// a job per (key, slot-0 group), the subsets that agree on the graph's
  /// root tasks, and skips per-slot schedule recording (the sweep never
  /// reads it). Each key is reduced in subset order by the thread that
  /// finishes its last group, so its option set is identical to a serial
  /// sweep over evaluate() at every thread count, and is allocated on that
  /// thread.
  std::vector<std::vector<PeriodOption>> pareto_options(
      const std::vector<double>& solar_w,
      std::span<const OptionKey> keys) const;

  const task::TaskGraph& graph() const noexcept { return *graph_; }

 private:
  /// One job's reusable state: the capacitor bank, a simulated state per
  /// walk depth, and the decision buffers.
  struct WalkScratch;
  /// What one walk reads and where it writes its summaries.
  struct Sweep;

  /// Simulates `members` (indices into sweep.subsets, permuted in place)
  /// on scratch depth `depth` from slot `m` to the end of the period. The
  /// members share one state while they agree on the enabled bit of every
  /// live task; the walk only reads those bits, so each member runs exactly
  /// its own evaluation. At the first slot where they disagree the group
  /// splits and each branch but the last continues on a copy one depth
  /// down. `slot_started` means slot m's deadlines are marked and its live
  /// list is in the frame. From the first slot where no member task is
  /// live, the rest of the period runs as physics only, once per leaf.
  void walk(const Sweep& sweep, WalkScratch& scratch, std::size_t depth,
            std::size_t m, std::span<std::uint32_t> members,
            bool slot_started) const;

  const task::TaskGraph* graph_;
  storage::PmuConfig pmu_;
  storage::RegulatorModel regulators_;
  storage::LeakageModel leakage_;
  double v_low_;
  double v_high_;
  double dt_s_;
  std::vector<std::vector<bool>> closed_;  ///< Cached closed subsets.
  std::vector<std::uint64_t> closed_masks_;  ///< closed_ as bit masks.
  /// closed_ indices grouped by their root-task bits (the slot-0 groups),
  /// largest group first: group g is
  /// group_members_[group_begin_[g], group_begin_[g+1]).
  std::vector<std::uint32_t> group_members_;
  std::vector<std::size_t> group_begin_;
};

}  // namespace solsched::sched
