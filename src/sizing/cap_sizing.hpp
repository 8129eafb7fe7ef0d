// Distributed super-capacitor sizing (Sec. 4.1).
//
// Three steps, exactly as the paper:
//   1. derive each day's energy-migration pattern ΔE_{i,j,m} (Eq. 2) from an
//      unlimited-energy ASAP schedule of the benchmark;
//   2. find the capacity C_i^opt minimizing that day's migration loss
//      (Eq. 10-11): conversion losses + leakage + spilled surplus + unmet
//      demand (the η = 0 out-of-range case of Eq. 3 counts in full);
//   3. cluster the {C_i^opt} into H groups (k-means) and use each cluster
//      mean as one distributed capacitor.
#pragma once

#include <cstddef>
#include <vector>

#include "solar/solar_trace.hpp"
#include "storage/leakage.hpp"
#include "storage/pmu.hpp"
#include "storage/regulator.hpp"
#include "task/task_graph.hpp"

namespace solsched::sizing {

/// Search and physics knobs.
struct SizingConfig {
  double v_low = 0.5;
  double v_high = 5.0;
  storage::PmuConfig pmu{};
  storage::RegulatorModel regulators =
      storage::RegulatorModel::fitted_default();
  storage::LeakageModel leakage = storage::LeakageModel::fitted_default();
};

/// Outcome of the whole sizing flow.
struct SizingResult {
  std::vector<double> daily_optimal_f;   ///< C_i^opt per day.
  std::vector<double> daily_loss_j;      ///< Migration loss at the optimum.
  std::vector<double> capacities_f;      ///< H clustered capacities, ascending.
  std::vector<std::size_t> day_labels;   ///< Cluster index per day.
};

/// Per-slot load power (W) of the benchmark under an unlimited-energy ASAP
/// schedule of one period (identical across periods).
std::vector<double> asap_period_load_w(const task::TaskGraph& graph,
                                       std::size_t n_slots, double dt_s);

/// Migration deltas ΔE (J, signed) per slot for a whole day (Eq. 2).
std::vector<double> day_migration_deltas_j(const task::TaskGraph& graph,
                                           const solar::SolarTrace& trace,
                                           std::size_t day,
                                           const storage::PmuConfig& pmu);

/// Same, with the (day-invariant) ASAP load precomputed by the caller, so a
/// multi-day sweep does not re-derive it per day.
std::vector<double> day_migration_deltas_j(const std::vector<double>& load_w,
                                           const solar::SolarTrace& trace,
                                           std::size_t day,
                                           const storage::PmuConfig& pmu);

/// Total migration loss (J) of pushing a ΔE sequence through a capacitor of
/// the given capacity (Eq. 10).
double migration_loss_j(const std::vector<double>& deltas_j, double capacity_f,
                        const SizingConfig& config, double dt_s);

/// C_i^opt for one day's deltas, searched in [0.5, 120] F: log-space coarse
/// scan + golden refinement.
double optimal_capacity_f(const std::vector<double>& deltas_j,
                          const SizingConfig& config, double dt_s);

/// Full flow over a multi-day trace.
SizingResult size_capacitors(const task::TaskGraph& graph,
                             const solar::SolarTrace& trace, std::size_t h,
                             const SizingConfig& config = {});

}  // namespace solsched::sizing
