// LUT-driven online scheduler (ablation alternative to the DBN).
//
// The paper compresses its offline LUT (Eq. 13) into a DBN for the online
// side; this policy instead queries the LUT directly each period with the
// measured previous-period solar energy and each capacitor's voltage,
// adopting the nearest low-DMR entry's (capacitor, te, α). It shares the
// Eq. 22 switch gate and the δ mode rule with the proposed scheduler, so
// comparing the two isolates the value of the learned generalization
// against raw nearest-neighbour recall.
#pragma once

#include <memory>

#include "nvp/scheduler.hpp"
#include "sched/lut.hpp"
#include "sched/proposed.hpp"
#include "sched/sched_util.hpp"

namespace solsched::sched {

/// Online policy backed by the Eq. 13 lookup table.
class LutScheduler final : public nvp::Scheduler {
 public:
  /// `lut` must stay alive for the scheduler's lifetime.
  /// `capacities_f` is the bank layout the LUT's capacity column indexes.
  LutScheduler(std::shared_ptr<const Lut> lut,
               std::vector<double> capacities_f, std::size_t n_tasks,
               ProposedConfig config = {});

  std::string name() const override { return "LUT-online"; }
  nvp::PeriodPlan begin_period(const nvp::PeriodContext& ctx) override;
  std::vector<std::size_t> schedule_slot(const nvp::SlotContext& ctx) override;

 private:
  std::shared_ptr<const Lut> lut_;
  std::vector<double> capacities_f_;
  std::size_t n_tasks_;
  ProposedConfig config_;
  std::vector<bool> active_te_;
  bool intra_mode_ = false;
  LoadMatchScratch scratch_;
  std::vector<std::size_t> chosen_;
};

}  // namespace solsched::sched
