// Harvesting-aware DVFS load matcher (registry entry "dvfs-match").
//
// The related-work family [5, 6, 8] matches load to harvest by slowing
// tasks down instead of switching them on and off. Per slot this policy
// picks a frequency (or off) for each NVP's most urgent ready task so the
// total scaled load hugs the usable solar power; deadline-critical tasks
// get a level at or above the rate that still makes the deadline, and the
// whole set is shed to the supplyable power like every other policy. The
// levels and power law are the node's (NodeConfig::dvfs); the chosen
// levels go back through SlotContext::frequencies, so with levels = {1.0}
// the policy is plain on/off load matching.
#pragma once

#include "nvp/scheduler.hpp"
#include "sched/sched_util.hpp"

namespace solsched::sched {

class DvfsLoadMatcher final : public nvp::Scheduler {
 public:
  std::string name() const override { return "dvfs-match"; }
  void begin_trace(const task::TaskGraph& graph, const nvp::NodeConfig& config,
                   const solar::SolarTrace& trace) override;
  nvp::PeriodPlan begin_period(const nvp::PeriodContext& ctx) override;
  std::vector<std::size_t> schedule_slot(const nvp::SlotContext& ctx) override;

 private:
  /// One NVP's EDF head and the work rate it needs from now on.
  struct Head {
    std::size_t task;
    double min_required_f;  ///< Lowest rate that can still meet the deadline.
    bool forced;            ///< Must run at >= min_required_f this slot.
  };

  nvp::DvfsModel model_;
  // Slot-path buffers (DESIGN.md §9): refilled within capacity each slot.
  LoadMatchScratch scratch_;
  std::vector<Head> heads_;
  std::vector<std::vector<double>> options_;  ///< Per head; 0.0 means off.
  std::vector<std::size_t> pick_;
  std::vector<std::size_t> best_pick_;
  std::vector<std::size_t> chosen_;
};

}  // namespace solsched::sched
