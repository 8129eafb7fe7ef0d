#include "sizing/cap_sizing.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "storage/supercap.hpp"
#include "task/period_state.hpp"
#include "util/kmeans.hpp"
#include "util/mathx.hpp"
#include "util/thread_pool.hpp"

namespace solsched::sizing {
namespace {

/// Search range of optimal_capacity_f (F) and its log-spaced pre-scan
/// resolution.
constexpr double kMinCapacityF = 0.5;
constexpr double kMaxCapacityF = 120.0;
constexpr std::size_t kCoarsePoints = 13;

}  // namespace

std::vector<double> asap_period_load_w(const task::TaskGraph& graph,
                                       std::size_t n_slots, double dt_s) {
  task::PeriodState state(graph);
  std::vector<double> load(n_slots, 0.0);
  for (std::size_t m = 0; m < n_slots; ++m) {
    // Pure ASAP with unlimited energy: every NVP runs its earliest-deadline
    // ready task.
    std::vector<std::size_t> chosen;
    std::vector<bool> nvp_used(graph.nvp_count(), false);
    for (std::size_t id : graph.topo_order()) {
      if (!state.ready(id)) continue;
      const std::size_t nvp = graph.task(id).nvp;
      if (nvp_used[nvp]) continue;
      // EDF among the NVP's ready tasks.
      bool better_exists = false;
      for (std::size_t other : graph.tasks_on_nvp(nvp))
        if (other != id && state.ready(other) &&
            graph.task(other).deadline_s < graph.task(id).deadline_s)
          better_exists = true;
      if (better_exists) continue;
      nvp_used[nvp] = true;
      chosen.push_back(id);
    }
    for (std::size_t id : chosen) {
      load[m] += graph.task(id).power_w;
      state.execute(id, dt_s);
    }
  }
  return load;
}

std::vector<double> day_migration_deltas_j(const task::TaskGraph& graph,
                                           const solar::SolarTrace& trace,
                                           std::size_t day,
                                           const storage::PmuConfig& pmu) {
  const solar::TimeGrid& grid = trace.grid();
  return day_migration_deltas_j(
      asap_period_load_w(graph, grid.n_slots, grid.dt_s), trace, day, pmu);
}

std::vector<double> day_migration_deltas_j(const std::vector<double>& load,
                                           const solar::SolarTrace& trace,
                                           std::size_t day,
                                           const storage::PmuConfig& pmu) {
  const solar::TimeGrid& grid = trace.grid();
  std::vector<double> deltas;
  deltas.reserve(grid.n_periods * grid.n_slots);
  for (std::size_t j = 0; j < grid.n_periods; ++j)
    for (std::size_t m = 0; m < grid.n_slots; ++m) {
      // Surplus beyond what the direct channel needs for the load (Eq. 2,
      // adjusted for the dual-channel architecture).
      const double solar_w = trace.at(day, j, m);
      const double needed_w = load[m] / pmu.direct_eta;
      deltas.push_back((solar_w - needed_w) * grid.dt_s);
    }
  return deltas;
}

double migration_loss_j(const std::vector<double>& deltas_j, double capacity_f,
                        const SizingConfig& config, double dt_s) {
  storage::SuperCapacitor cap(
      storage::CapParams{capacity_f, config.v_low, config.v_high},
      config.regulators, config.leakage);
  double loss = 0.0;
  for (double delta : deltas_j) {
    if (delta > 0.0) {
      const storage::ChargeResult c = cap.charge(delta);
      loss += c.conversion_loss_j + c.spilled_j;
    } else if (delta < 0.0) {
      const double demand = -delta;
      const storage::DischargeResult d = cap.discharge(demand);
      // Unserved demand is counted in full: the η = 0 out-of-range case of
      // Eq. 3 makes ΔE·(1-η) the whole |ΔE|.
      loss += d.conversion_loss_j + (demand - d.delivered_j);
    }
    loss += cap.apply_leakage(dt_s);
  }
  return loss;
}

double optimal_capacity_f(const std::vector<double>& deltas_j,
                          const SizingConfig& config, double dt_s) {
  // Coarse log-space scan to bracket the minimum (the loss curve is close
  // to unimodal but can have shallow plateaus).
  const auto grid_points = util::linspace(
      std::log10(kMinCapacityF), std::log10(kMaxCapacityF), kCoarsePoints);
  // Independent candidate capacities: evaluate in parallel into per-index
  // slots, pick the minimum serially in grid order (deterministic at any
  // thread count).
  std::vector<double> losses(grid_points.size());
  util::parallel_for(grid_points.size(), [&](std::size_t i) {
    losses[i] =
        migration_loss_j(deltas_j, std::pow(10.0, grid_points[i]), config,
                         dt_s);
  });
  std::size_t best = 0;
  double best_loss = std::numeric_limits<double>::max();
  for (std::size_t i = 0; i < grid_points.size(); ++i) {
    if (losses[i] < best_loss) {
      best_loss = losses[i];
      best = i;
    }
  }
  const double lo = grid_points[best == 0 ? 0 : best - 1];
  const double hi =
      grid_points[std::min(grid_points.size() - 1, best + 1)];
  const double log_c = util::golden_minimize(
      [&](double lg) {
        return migration_loss_j(deltas_j, std::pow(10.0, lg), config, dt_s);
      },
      lo, hi, 1e-3);
  return std::pow(10.0, log_c);
}

SizingResult size_capacitors(const task::TaskGraph& graph,
                             const solar::SolarTrace& trace, std::size_t h,
                             const SizingConfig& config) {
  const solar::TimeGrid& grid = trace.grid();
  SizingResult result;
  // The ASAP load is period-invariant: derive it once for all days.
  const std::vector<double> load =
      asap_period_load_w(graph, grid.n_slots, grid.dt_s);
  // Days are independent; each writes its own pre-sized slot.
  result.daily_optimal_f.assign(grid.n_days, 0.0);
  result.daily_loss_j.assign(grid.n_days, 0.0);
  util::parallel_for(grid.n_days, [&](std::size_t day) {
    const auto deltas = day_migration_deltas_j(load, trace, day, config.pmu);
    const double c_opt = optimal_capacity_f(deltas, config, grid.dt_s);
    result.daily_optimal_f[day] = c_opt;
    result.daily_loss_j[day] =
        migration_loss_j(deltas, c_opt, config, grid.dt_s);
  });
  const util::KMeansResult clusters =
      util::kmeans_1d(result.daily_optimal_f, h);
  result.capacities_f = clusters.centroids;
  result.day_labels = clusters.labels;
  return result;
}

}  // namespace solsched::sizing
