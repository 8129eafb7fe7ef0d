// Energy-aware EDF zoo (registry entries "ccedf", "laedf", "greedy").
//
// Three classical energy-aware references adapted from DVS real-time
// scheduling (Pillai & Shin style CC-EDF / LA-EDF) and admission control to
// the harvesting NVP node. None of them is part of the paper's comparison
// set; they bracket the design space between the energy-oblivious EDF
// baseline and the storage-aware LSA/duty-cycle policies:
//   * CC-EDF: EDF order, but admission throttled to the *required* average
//     power of the live task set (cycle-conserving — completed work lowers
//     the requirement for the rest of the period);
//   * LA-EDF: EDF order with aggregate look-ahead — defer all non-forced
//     work while stored energy plus the harvest forecast covers the
//     remaining demand, switch to eager EDF the moment it no longer does;
//   * greedy feasibility: per-period admission control that enables jobs in
//     deadline order only while their energy demand fits the harvest
//     forecast plus stored energy, skipping infeasible jobs outright.
// All three are pure functions of (context, config): no RNG, no
// cross-period hidden state beyond what begin_period recomputes, so they
// are bit-identical at any thread count like every other policy.
#pragma once

#include "nvp/scheduler.hpp"
#include "sched/sched_util.hpp"

namespace solsched::sched {

/// Slot-path buffers every variant owns: the EDF-head scratch and the
/// decision being built.
struct EdfHeadScratch {
  LoadMatchScratch lm;
  std::vector<std::size_t> heads;
  std::vector<std::size_t> chosen;
};

/// Cycle-conserving EDF: per-NVP EDF heads, admitted while the committed
/// load stays within the live set's required average power (remaining
/// energy over time-to-deadline), deadline-forced tasks always first.
class CcEdfScheduler final : public nvp::Scheduler {
 public:
  std::string name() const override { return "ccedf"; }
  nvp::PeriodPlan begin_period(const nvp::PeriodContext& ctx) override;
  std::vector<std::size_t> schedule_slot(const nvp::SlotContext& ctx) override;

 private:
  EdfHeadScratch scratch_;
};

/// Look-ahead EDF: while deliverable storage plus the WCMA forecast up to
/// the latest live deadline covers the remaining energy demand (with a
/// reserve margin), only deadline-forced tasks run; once coverage fails,
/// EDF heads run eagerly up to the PMU's supplyable power.
class LaEdfScheduler final : public nvp::Scheduler {
 public:
  std::string name() const override { return "laedf"; }
  nvp::PeriodPlan begin_period(const nvp::PeriodContext& ctx) override;
  std::vector<std::size_t> schedule_slot(const nvp::SlotContext& ctx) override;

 private:
  EdfHeadScratch scratch_;
};

/// Greedy energy-feasibility admission: at each period start, enable tasks
/// in deadline order (with their dependency closures) while the cumulative
/// energy demand fits the period's forecast harvest plus stored energy;
/// jobs that do not fit are skipped for the period. Enabled tasks run EDF
/// per NVP, shed to the supplyable load.
class GreedyFeasibleScheduler final : public nvp::Scheduler {
 public:
  std::string name() const override { return "greedy"; }
  nvp::PeriodPlan begin_period(const nvp::PeriodContext& ctx) override;
  std::vector<std::size_t> schedule_slot(const nvp::SlotContext& ctx) override;

  /// The admission budget computed for the current period (J).
  double current_budget_j() const noexcept { return budget_j_; }

 private:
  double budget_j_ = 0.0;
  std::vector<bool> enabled_;
  AdmissionScratch admission_;
  EdfHeadScratch scratch_;
};

}  // namespace solsched::sched
