#include "solar/solar_trace.hpp"

#include <algorithm>
#include <stdexcept>

namespace solsched::solar {

SolarTrace::SolarTrace(const TimeGrid& grid)
    : grid_(grid), power_w_(grid.total_slots(), 0.0) {}

SolarTrace::SolarTrace(const TimeGrid& grid, std::vector<double> power_w)
    : grid_(grid), power_w_(std::move(power_w)) {
  if (power_w_.size() != grid_.total_slots())
    throw std::invalid_argument("SolarTrace: power vector size mismatch");
}

double SolarTrace::at(std::size_t day, std::size_t period,
                      std::size_t slot) const {
  return power_w_.at(grid_.flat_slot(day, period, slot));
}

std::vector<double> SolarTrace::period_powers(std::size_t day,
                                              std::size_t period) const {
  const std::span<const double> view = period_view(day, period);
  return {view.begin(), view.end()};
}

std::span<const double> SolarTrace::period_view(std::size_t day,
                                                std::size_t period) const {
  const std::size_t first = grid_.flat_slot(day, period, 0);
  if (first + grid_.n_slots > power_w_.size())
    throw std::out_of_range("SolarTrace::period_view: period out of range");
  return {power_w_.data() + first, grid_.n_slots};
}

double SolarTrace::period_energy_j(std::size_t day, std::size_t period) const {
  double energy = 0.0;
  for (std::size_t m = 0; m < grid_.n_slots; ++m)
    energy += at(day, period, m) * grid_.dt_s;
  return energy;
}

double SolarTrace::day_energy_j(std::size_t day) const {
  double energy = 0.0;
  for (std::size_t j = 0; j < grid_.n_periods; ++j)
    energy += period_energy_j(day, j);
  return energy;
}

double SolarTrace::total_energy_j() const {
  double energy = 0.0;
  for (double p : power_w_) energy += p * grid_.dt_s;
  return energy;
}

double SolarTrace::peak_power_w() const {
  if (power_w_.empty()) return 0.0;
  return *std::max_element(power_w_.begin(), power_w_.end());
}

SolarTrace SolarTrace::scaled(double factor) const {
  std::vector<double> scaled_power = power_w_;
  for (double& p : scaled_power) p *= factor;
  return SolarTrace{grid_, std::move(scaled_power)};
}

SolarTrace SolarTrace::day_slice(std::size_t day) const {
  if (day >= grid_.n_days)
    throw std::out_of_range("SolarTrace::day_slice: day out of range");
  TimeGrid one = grid_;
  one.n_days = 1;
  const std::size_t begin = day * grid_.slots_per_day();
  std::vector<double> slice(power_w_.begin() + static_cast<long>(begin),
                            power_w_.begin() +
                                static_cast<long>(begin + one.total_slots()));
  return SolarTrace{one, std::move(slice)};
}

SolarTrace SolarTrace::concat_days(const std::vector<SolarTrace>& days) {
  if (days.empty()) return {};
  TimeGrid grid = days.front().grid();
  grid.n_days = 0;
  std::vector<double> power;
  for (const auto& d : days) {
    TimeGrid g = d.grid();
    if (g.n_periods != grid.n_periods || g.n_slots != grid.n_slots ||
        g.dt_s != grid.dt_s)
      throw std::invalid_argument("concat_days: incompatible day grids");
    grid.n_days += g.n_days;
    power.insert(power.end(), d.raw().begin(), d.raw().end());
  }
  return SolarTrace{grid, std::move(power)};
}

}  // namespace solsched::solar
