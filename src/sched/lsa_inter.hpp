// Inter-task lazy scheduling baseline — the "up-to-date WCMA-based LSA" [3].
//
// The HOLLOWS-style policy maximizes energy utilization in the *current*
// period: a task starts when (a) its deadline forces it, (b) the present
// solar surplus can power it directly (free energy, no storage round trip),
// or (c) the WCMA forecast says waiting will not bring enough energy to
// finish it later, so stored energy must be spent now. It has no notion of
// tomorrow — exactly the single-period horizon the paper criticizes.
#pragma once

#include "nvp/scheduler.hpp"
#include "sched/sched_util.hpp"

namespace solsched::sched {

/// Core LSA slot decision, reusable by the proposed scheduler's inter-task
/// mode: forced starts + free-solar starts + forecast-starved starts, over
/// tasks allowed by `enabled` (empty = all), into `chosen` (cleared first).
void lsa_slot_decision(const nvp::SlotContext& ctx,
                       const std::vector<bool>& enabled, double margin_slots,
                       LoadMatchScratch& scratch,
                       std::vector<std::size_t>& chosen);

/// WCMA-driven lazy (as-late-as-viable) inter-task scheduler.
class LsaInterScheduler final : public nvp::Scheduler {
 public:
  std::string name() const override { return "Inter-task"; }
  nvp::PeriodPlan begin_period(const nvp::PeriodContext& ctx) override;
  std::vector<std::size_t> schedule_slot(const nvp::SlotContext& ctx) override;

 private:
  LoadMatchScratch scratch_;
  std::vector<std::size_t> chosen_;
};

}  // namespace solsched::sched
