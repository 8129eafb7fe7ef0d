// Slot-level simulator for DVFS-capable nodes.
//
// Mirrors nvp::simulate but lets the policy pick a frequency per task per
// slot: execution advances by f * dt, the drawn power is scaled by the
// DVFS power law. Everything else — the dual-channel PMU, the capacitor
// bank, deadline bookkeeping, the all-or-nothing brownout rule — is shared
// with the main engine, so on/off scheduling is exactly the special case
// levels = {1.0}.
#pragma once

#include <string>
#include <vector>

#include "dvfs/dvfs_model.hpp"
#include "nvp/node_config.hpp"
#include "nvp/sim_result.hpp"
#include "sched/sched_util.hpp"
#include "solar/solar_trace.hpp"
#include "task/period_state.hpp"
#include "task/task_graph.hpp"

namespace solsched::dvfs {

/// Read-only view handed to a DVFS policy each slot.
struct DvfsSlotContext {
  std::size_t day = 0;
  std::size_t period = 0;
  std::size_t slot = 0;
  double now_in_period_s = 0.0;
  double solar_w = 0.0;
  const solar::TimeGrid* grid = nullptr;
  const task::TaskGraph* graph = nullptr;
  const task::PeriodState* state = nullptr;
  const storage::CapacitorBank* bank = nullptr;
  const storage::Pmu* pmu = nullptr;
  const DvfsModel* model = nullptr;
};

/// A frequency-aware scheduling policy.
class DvfsScheduler {
 public:
  virtual ~DvfsScheduler() = default;
  virtual std::string name() const = 0;
  virtual std::vector<DvfsAction> schedule_slot(
      const DvfsSlotContext& ctx) = 0;
};

/// Runs `policy` over `trace`; validates every action (known task, valid
/// level, readiness, one task per NVP) and throws std::logic_error on
/// violations.
nvp::SimResult simulate_dvfs(const task::TaskGraph& graph,
                             const solar::SolarTrace& trace,
                             DvfsScheduler& policy,
                             const nvp::NodeConfig& config,
                             const DvfsModel& model);

/// Harvesting-aware DVFS load matcher ([5, 6]-style): per slot, picks a
/// frequency (or off) for each NVP's most urgent ready task so the total
/// scaled load hugs the usable solar power; deadline-critical tasks get
/// the lowest frequency that still makes the deadline (energy-minimal
/// among the feasible ones), and the whole set is shed to the supplyable
/// power like every other policy.
class DvfsLoadMatcher final : public DvfsScheduler {
 public:
  std::string name() const override { return "DVFS-match"; }
  std::vector<DvfsAction> schedule_slot(const DvfsSlotContext& ctx) override;

 private:
  sched::LoadMatchScratch scratch_;
};

}  // namespace solsched::dvfs
