#include "storage/cap_bank.hpp"

#include <stdexcept>

#include "obs/metrics.hpp"

namespace solsched::storage {

CapacitorBank::CapacitorBank(const std::vector<double>& capacities_f,
                             const RegulatorModel& regulators,
                             const LeakageModel& leakage, double v_low,
                             double v_high) {
  if (capacities_f.empty())
    throw std::invalid_argument("CapacitorBank: need at least one capacitor");
  caps_.reserve(capacities_f.size());
  for (double c : capacities_f)
    caps_.emplace_back(CapParams{c, v_low, v_high}, regulators, leakage);
}

void CapacitorBank::select(std::size_t index) {
  if (index >= caps_.size())
    throw std::out_of_range("CapacitorBank::select: index out of range");
  if (index != selected_) OBS_COUNTER_ADD("storage.cap_bank.switches", 1);
  selected_ = index;
}

std::vector<double> CapacitorBank::voltages() const {
  std::vector<double> out;
  out.reserve(caps_.size());
  for (const auto& c : caps_) out.push_back(c.voltage_v());
  return out;
}

std::vector<double> CapacitorBank::capacities() const {
  std::vector<double> out;
  out.reserve(caps_.size());
  for (const auto& c : caps_) out.push_back(c.capacity_f());
  return out;
}

double CapacitorBank::total_energy_j() const {
  double acc = 0.0;
  for (const auto& c : caps_) acc += c.energy_j();
  return acc;
}

double CapacitorBank::apply_leakage_all(double dt_s) {
  double leaked = 0.0;
  for (auto& c : caps_) leaked += c.apply_leakage(dt_s);
  return leaked;
}

}  // namespace solsched::storage
