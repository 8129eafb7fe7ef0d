// Intra-task fine-grained load-matching baseline [9].
//
// Designed for storage-less/converter-less nodes: every slot it picks the
// task combination whose total power best matches the instantaneous solar
// power (minimizing the mismatch that would be lost or need storage),
// forcing deadline-critical tasks in regardless. Like the inter-task
// baseline, its horizon is the current period only.
#pragma once

#include "nvp/scheduler.hpp"
#include "sched/sched_util.hpp"

namespace solsched::sched {

/// Per-slot exhaustive load matcher (one candidate per NVP, <= 2^6 combos).
class IntraTaskScheduler final : public nvp::Scheduler {
 public:
  std::string name() const override { return "Intra-task"; }
  nvp::PeriodPlan begin_period(const nvp::PeriodContext& ctx) override;
  std::vector<std::size_t> schedule_slot(const nvp::SlotContext& ctx) override;

  /// Load-matching core, shared with the proposed scheduler's intra mode:
  /// chooses among each NVP's head candidate to minimize |target_w - load|,
  /// always including forced tasks, into `chosen` (cleared first). Exposed
  /// for reuse and testing.
  static void match_load(const nvp::SlotContext& ctx,
                         const std::vector<bool>& enabled, double target_w,
                         LoadMatchScratch& scratch,
                         std::vector<std::size_t>& chosen);

 private:
  LoadMatchScratch scratch_;
  std::vector<std::size_t> chosen_;
};

}  // namespace solsched::sched
