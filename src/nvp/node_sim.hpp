// Slot-level node simulator.
//
// Drives a scheduling policy over a solar trace: per period it applies the
// policy's coarse plan (capacitor selection, te subset), per slot it asks
// for a task set (and, on a DVFS node, optionally a frequency level per
// task), validates it against readiness / NVP-exclusivity / te constraints
// (Eq. 7-9) and the node's DVFS levels, resolves energy flows through the
// PMU, advances task state, and accounts deadline misses (Eq. 5-6).
// On/off scheduling is the special case of an empty frequency channel.
#pragma once

#include "fault/fault_injector.hpp"
#include "nvp/node_config.hpp"
#include "nvp/scheduler.hpp"
#include "nvp/sim_result.hpp"
#include "obs/sim_trace.hpp"

namespace solsched::nvp {

/// Runs `policy` on `graph` over `trace`. `predictor` supplies forecasts to
/// the policy and is fed every measured slot. Throws std::logic_error if the
/// policy violates a scheduling constraint, std::invalid_argument if `config`
/// fails NodeConfig::validate().
///
/// If `events` is non-null, one batch of typed per-period events is appended
/// per simulated period (period_energy, cap_voltages, deadline, plus
/// cap_switch / migration when those occur). The trace is owned by the caller
/// and is not thread-safe: give each concurrent simulation its own SimTrace.
///
/// If `faults` is non-null and its plan is active, the injector's
/// precomputed fault tables drive the run (DESIGN.md §11): blackout slots
/// cut supply *and* storage access (no harvest, no scheduling; the NVP pays
/// backup_energy_j at entry and restore_energy_j at recovery; the volatile
/// baseline instead wipes in-period task progress), sensor faults corrupt
/// the power the policy and predictor *see* without touching the physical
/// harvest, capacitor aging degrades the bank day by day, and a stuck-dead
/// cell may drop out mid-run. The injector is read-only here and may be
/// shared across concurrent simulations. A null injector — or an attached
/// plan with every rate at zero — leaves results bit-identical to a run
/// without the parameter.
SimResult simulate(const task::TaskGraph& graph,
                   const solar::SolarTrace& trace, Scheduler& policy,
                   const NodeConfig& config, solar::SolarPredictor& predictor,
                   obs::SimTrace* events = nullptr,
                   const fault::FaultInjector* faults = nullptr);

/// Convenience overload: builds a WCMA predictor internally.
SimResult simulate(const task::TaskGraph& graph,
                   const solar::SolarTrace& trace, Scheduler& policy,
                   const NodeConfig& config, obs::SimTrace* events = nullptr,
                   const fault::FaultInjector* faults = nullptr);

}  // namespace solsched::nvp
