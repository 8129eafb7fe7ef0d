// Container for harvested-power time series P^s_{i,j,m} (Table 1).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "solar/time_grid.hpp"

namespace solsched::solar {

/// Average harvested electrical power per slot, in watts, aligned to a
/// TimeGrid. This is the panel's *output* power (irradiance x area x
/// efficiency), i.e. the P^s of the paper.
class SolarTrace {
 public:
  SolarTrace() = default;

  /// Creates a trace over `grid` with all-zero power.
  explicit SolarTrace(const TimeGrid& grid);

  /// Creates a trace over `grid` from a flat per-slot power vector.
  /// Throws std::invalid_argument if sizes disagree.
  SolarTrace(const TimeGrid& grid, std::vector<double> power_w);

  const TimeGrid& grid() const noexcept { return grid_; }

  /// Power of slot m in period j on day i (watts).
  double at(std::size_t day, std::size_t period, std::size_t slot) const;
  /// Power by flattened slot index (watts).
  double at_flat(std::size_t flat) const { return power_w_[flat]; }
  /// Mutable access by flattened index.
  double& at_flat(std::size_t flat) { return power_w_[flat]; }

  /// All N_s slot powers of one period (watts).
  std::vector<double> period_powers(std::size_t day, std::size_t period) const;
  /// The same N_s powers as a view into the trace, valid while the trace
  /// lives: no copy, for per-slot callers. Throws std::out_of_range past
  /// the trace's end.
  std::span<const double> period_view(std::size_t day,
                                      std::size_t period) const;

  /// Harvested energy over one period (joules).
  double period_energy_j(std::size_t day, std::size_t period) const;
  /// Harvested energy over one day (joules).
  double day_energy_j(std::size_t day) const;
  /// Harvested energy over the whole trace (joules).
  double total_energy_j() const;

  /// Peak slot power over the whole trace (watts).
  double peak_power_w() const;

  /// Returns a new trace with every slot scaled by `factor` (>= 0).
  SolarTrace scaled(double factor) const;

  /// Returns the sub-trace of exactly one day (grid with n_days == 1).
  SolarTrace day_slice(std::size_t day) const;

  /// Concatenates day-long traces with identical period/slot structure.
  static SolarTrace concat_days(const std::vector<SolarTrace>& days);

  /// Raw flat power vector (watts, one entry per slot).
  const std::vector<double>& raw() const noexcept { return power_w_; }

 private:
  TimeGrid grid_{};
  std::vector<double> power_w_;
};

}  // namespace solsched::solar
