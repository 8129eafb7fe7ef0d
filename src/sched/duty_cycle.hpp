// Adaptive duty-cycling baseline (Kansal-style power management).
//
// A third family from the related work: instead of matching instantaneous
// load to solar (intra-task) or lazily deferring whole tasks (LSA), the
// node sets a per-period *energy budget* from an EWMA of recent harvest
// plus a bounded withdrawal from storage, enables the most valuable task
// subset that fits the budget, and schedules those tasks EDF within the
// period. Period-scale adaptation, no slot-scale matching.
#pragma once

#include "nvp/scheduler.hpp"
#include "sched/sched_util.hpp"

namespace solsched::sched {

/// Energy-budgeted duty-cycling policy.
class DutyCycleScheduler final : public nvp::Scheduler {
 public:
  std::string name() const override { return "Duty-cycle"; }

  void begin_trace(const task::TaskGraph& graph, const nvp::NodeConfig& node,
                   const solar::SolarTrace& trace) override;
  nvp::PeriodPlan begin_period(const nvp::PeriodContext& ctx) override;
  std::vector<std::size_t> schedule_slot(const nvp::SlotContext& ctx) override;

  /// The budget computed for the current period (J), for inspection.
  double current_budget_j() const noexcept { return budget_j_; }

 private:
  double harvest_estimate_j_ = 0.0;
  bool harvest_seen_ = false;
  double budget_j_ = 0.0;
  std::vector<bool> enabled_;
  AdmissionScratch admission_;
  LoadMatchScratch scratch_;
  std::vector<std::size_t> chosen_;
};

}  // namespace solsched::sched
