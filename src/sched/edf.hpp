// Earliest-deadline-first scheduler (energy-oblivious classical baseline).
//
// Not part of the paper's comparison set, but a useful reference point: it
// shows how much of the DMR problem is energy-driven rather than
// ordering-driven.
#pragma once

#include "nvp/scheduler.hpp"
#include "sched/sched_util.hpp"

namespace solsched::sched {

/// Per-NVP EDF among live ready tasks.
class EdfScheduler final : public nvp::Scheduler {
 public:
  std::string name() const override { return "EDF"; }
  nvp::PeriodPlan begin_period(const nvp::PeriodContext& ctx) override;
  std::vector<std::size_t> schedule_slot(const nvp::SlotContext& ctx) override;

 private:
  LoadMatchScratch scratch_;
  std::vector<std::size_t> chosen_;
};

}  // namespace solsched::sched
