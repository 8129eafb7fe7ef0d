// Experiment runner: one (benchmark, trace) against a set of registered
// policies, producing the rows Figures 8-10 are built from.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/pipeline.hpp"
#include "fault/fault_injector.hpp"
#include "fault/fault_plan.hpp"
#include "nvp/node_sim.hpp"
#include "obs/sim_trace.hpp"

namespace solsched::core {

/// Which policies to include in a comparison run.
struct ComparisonConfig {
  /// Canonical sched::Registry ids of the policies to run. Rows come back
  /// in the registry's fixed registration order regardless of the order
  /// (or duplicates) here — the pre-registry behaviour — so campaign
  /// journals are insensitive to how a spec lists its scheduler axis.
  /// Unknown ids throw std::out_of_range listing the known ids.
  std::vector<std::string> scheduler_ids = {"inter", "intra", "proposed",
                                            "optimal"};
  bool record_events = false;  ///< Attach a SimTrace to every row's sim.
  /// Optional shared fault injector (DESIGN.md §11): every row simulates
  /// under the same precomputed fault tables, and the proposed scheduler
  /// additionally receives the controller-corruption stream. Read-only, so
  /// sharing across the parallel rows is safe; must outlive the call.
  const fault::FaultInjector* faults = nullptr;
  sched::OptimalConfig dp{};
};

/// One policy's outcome on one (benchmark, trace).
struct ComparisonRow {
  /// Canonical registry id ("inter", "proposed_volatile", ...): the lookup
  /// key for row_of and any cross-layer reference to this row.
  std::string id;
  /// Display name ("Inter-task", ...): what human-facing tables and the
  /// campaign journal's `algo` field print. New zoo policies use their id
  /// as the display name; the paper-era policies keep their historic
  /// names so pre-registry journals stay byte-identical.
  std::string algo;
  double dmr = 0.0;
  double energy_utilization = 0.0;
  double migration_efficiency = 0.0;
  std::size_t brownouts = 0;
  nvp::SimResult sim;  ///< Full per-period records for series plots.
  /// Structured event trace of this row's simulation; non-null only when
  /// ComparisonConfig::record_events was set. Each row owns its own trace,
  /// so parallel rows never share a sink and the events stay deterministic.
  std::shared_ptr<obs::SimTrace> events;
};

/// Runs the configured policies. The trained controller supplies both the
/// sized capacitor bank (used for *all* policies, so the storage hardware is
/// identical) and the DBN for the proposed policy; when null, the node's
/// own capacitor list is used and policies that need a controller are
/// skipped.
std::vector<ComparisonRow> run_comparison(const task::TaskGraph& graph,
                                          const solar::SolarTrace& trace,
                                          const nvp::NodeConfig& node,
                                          const TrainedController* trained,
                                          const ComparisonConfig& config = {});

/// Finds a row by canonical id ("inter", "proposed", ...); throws
/// std::out_of_range listing the ids present when absent.
const ComparisonRow& row_of(const std::vector<ComparisonRow>& rows,
                            const std::string& id);

/// Resilience sweep configuration (DESIGN.md §11): one base fault plan,
/// scaled to a range of intensities; intensity 0 is the fault-free control.
struct ResilienceConfig {
  fault::FaultPlan plan;  ///< Base plan; plan.scaled(intensity) per point.
  std::vector<double> intensities = {0.0, 0.5, 1.0, 2.0};
  /// Registry ids, as in ComparisonConfig ("proposed" needs a controller).
  /// With "proposed" listed and a trained controller, each point also runs
  /// the proposed policy on a volatile-processor node (progress wiped at
  /// power failures) — the NVP-vs-volatile ablation row, id
  /// "proposed_volatile", displayed as "Proposed (volatile)".
  std::vector<std::string> scheduler_ids = {"inter", "intra", "proposed"};
  /// Attach a SimTrace to every row's sim, as in ComparisonConfig. Enables
  /// per-row deadline-miss attribution in core::resilience_table.
  bool record_events = false;
};

/// One intensity point of the sweep.
struct ResiliencePoint {
  double intensity = 0.0;
  std::vector<ComparisonRow> rows;
};

/// Runs every listed policy at every intensity of `config`, one shared
/// deterministic injector per intensity. Rows execute on the thread pool;
/// results are identical at any SOLSCHED_THREADS setting.
std::vector<ResiliencePoint> run_resilience_sweep(
    const task::TaskGraph& graph, const solar::SolarTrace& trace,
    const nvp::NodeConfig& node, const TrainedController* trained,
    const ResilienceConfig& config);

}  // namespace solsched::core
