// Scheduler interface between the node simulator and scheduling policies.
//
// A policy is consulted twice per time scale:
//   * begin_period(): coarse-grained — may switch the selected capacitor and
//     restrict the task subset attempted this period (the paper's te vector);
//   * schedule_slot(): fine-grained — picks the tasks to execute in the
//     coming slot (at most one per NVP, only ready tasks) and, on a DVFS
//     node, optionally a frequency level for each (SlotContext::frequencies).
// The simulator validates every decision and throws on constraint
// violations, so a policy bug cannot silently corrupt an experiment.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "nvp/node_config.hpp"
#include "solar/predictor.hpp"
#include "solar/solar_trace.hpp"
#include "storage/cap_bank.hpp"
#include "task/period_state.hpp"
#include "task/task_graph.hpp"

namespace solsched::nvp {

/// Read-only view handed to a policy at the start of each period.
struct PeriodContext {
  std::size_t day = 0;
  std::size_t period = 0;                       ///< Within the day.
  const solar::TimeGrid* grid = nullptr;
  const task::TaskGraph* graph = nullptr;
  const storage::CapacitorBank* bank = nullptr;
  solar::SolarPredictor* predictor = nullptr;   ///< Observed through last slot.
  double accumulated_dmr = 0.0;                 ///< DMR^acc so far (Eq. 19).
  std::vector<double> last_period_solar_w;      ///< Measured previous period.
};

/// Coarse-grained decision for one period.
struct PeriodPlan {
  /// Capacitor to select for this period (nullopt = keep current).
  std::optional<std::size_t> select_cap;
  /// te vector: tasks the policy intends to attempt this period. Empty means
  /// "all tasks". The simulator refuses slot decisions outside this set.
  std::vector<bool> tasks_enabled;
  /// Set by policies with a degraded mode (DESIGN.md §11): the primary
  /// decision procedure produced unusable output and a safe baseline plan was
  /// substituted. The simulator records it and emits a `fallback` event.
  bool used_fallback = false;
  /// Policy-specific reason code for the fallback (0 = none). The proposed
  /// scheduler uses sched::FallbackReason values.
  int fallback_code = 0;
};

/// View handed to a policy before each slot. Everything is read-only except
/// the predictor and the frequency channel.
struct SlotContext {
  std::size_t day = 0;
  std::size_t period = 0;
  std::size_t slot = 0;
  double now_in_period_s = 0.0;                 ///< Slot start time.
  double solar_w = 0.0;                         ///< Measured current power.
  const solar::TimeGrid* grid = nullptr;
  const task::TaskGraph* graph = nullptr;
  const task::PeriodState* state = nullptr;
  const storage::CapacitorBank* bank = nullptr;
  const storage::Pmu* pmu = nullptr;
  solar::SolarPredictor* predictor = nullptr;
  /// DVFS frequency channel, owned by the simulator and cleared before each
  /// slot. Left empty, every returned task runs at full speed. Otherwise it
  /// holds one level of NodeConfig::dvfs per returned id, in the same
  /// order; the simulator charges power_w * power_scale(f) and advances the
  /// task by f * dt.
  std::vector<double>* frequencies = nullptr;
};

/// A scheduling policy.
class Scheduler {
 public:
  virtual ~Scheduler() = default;

  /// Identifier used in reports ("Inter-task", "Proposed", ...).
  virtual std::string name() const = 0;

  /// Called once before a simulation. Offline policies (the static optimal
  /// upper bound) may read the whole trace here; online policies must
  /// ignore it and rely on the predictor.
  virtual void begin_trace(const task::TaskGraph& /*graph*/,
                           const NodeConfig& /*config*/,
                           const solar::SolarTrace& /*trace*/) {}

  /// Coarse-grained per-period decision.
  virtual PeriodPlan begin_period(const PeriodContext& ctx) = 0;

  /// Fine-grained per-slot decision: ids of tasks to execute next slot.
  virtual std::vector<std::size_t> schedule_slot(const SlotContext& ctx) = 0;
};

}  // namespace solsched::nvp
