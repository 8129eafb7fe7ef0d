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

/// Evaluates task subsets within one period over one capacitor.
class PeriodOptimizer {
 public:
  PeriodOptimizer(const task::TaskGraph& graph, storage::PmuConfig pmu,
                  storage::RegulatorModel regulators,
                  storage::LeakageModel leakage, double v_low, double v_high,
                  double dt_s);

  /// Simulates the period executing subset `te` (size N; empty = all tasks)
  /// with the greedy-lazy placement described above.
  PeriodEval evaluate(const std::vector<bool>& te,
                      const std::vector<double>& solar_w, double capacity_f,
                      double v0) const;

  /// Evaluates every dependency-closed subset and returns, for each
  /// achievable miss count, the option with the smallest E^c. Sorted by
  /// ascending miss count.
  ///
  /// The subset sweep skips per-slot schedule recording (pareto_options
  /// never reads it) and fans the independent subset evaluations out on
  /// util::parallel_for, reducing the per-subset summaries serially in
  /// subset order — the selected options are identical to a serial sweep
  /// over evaluate() at every thread count.
  std::vector<PeriodOption> pareto_options(const std::vector<double>& solar_w,
                                           double capacity_f, double v0) const;

  const task::TaskGraph& graph() const noexcept { return *graph_; }

 private:
  /// Reusable per-evaluation state (capacitor bank, period state, decision
  /// buffers). Constructing these per subset dominates the sweep's profile,
  /// so the sweep builds one scratch per chunk and resets it per eval.
  struct EvalScratch;

  /// Core evaluation against caller-owned scratch (fully reset inside, so
  /// reuse never changes results). scratch.bank must match capacity_f and
  /// scratch.suffix_j must match solar_w.
  PeriodEval evaluate_with(const std::vector<bool>& te,
                           const std::vector<double>& solar_w, double v0,
                           bool record_slots, EvalScratch& scratch) const;

  const task::TaskGraph* graph_;
  storage::PmuConfig pmu_;
  storage::RegulatorModel regulators_;
  storage::LeakageModel leakage_;
  double v_low_;
  double v_high_;
  double dt_s_;
  std::vector<std::vector<bool>> closed_;  ///< Cached closed subsets.
};

}  // namespace solsched::sched
