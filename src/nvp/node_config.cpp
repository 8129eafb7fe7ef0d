#include "nvp/node_config.hpp"

#include <cmath>
#include <sstream>
#include <stdexcept>

namespace solsched::nvp {

storage::CapacitorBank NodeConfig::make_bank() const {
  storage::CapacitorBank bank(capacities_f, regulators, leakage, v_low,
                              v_high);
  bank.select(initial_cap);
  bank.selected().set_usable_energy_j(initial_usable_j);
  return bank;
}

std::vector<std::string> NodeConfig::findings() const {
  std::vector<std::string> out;
  const auto flag = [&out](const std::string& msg) { out.push_back(msg); };
  const auto finite = [](double v) { return std::isfinite(v); };

  if (grid.n_days == 0) flag("grid.n_days must be > 0");
  if (grid.n_periods == 0) flag("grid.n_periods must be > 0");
  if (grid.n_slots == 0) flag("grid.n_slots must be > 0");
  if (!finite(grid.dt_s) || grid.dt_s <= 0.0)
    flag("grid.dt_s must be finite and > 0");

  if (capacities_f.empty()) {
    flag("capacities_f must name at least one capacitor");
  } else {
    for (std::size_t i = 0; i < capacities_f.size(); ++i)
      if (!finite(capacities_f[i]) || capacities_f[i] <= 0.0)
        flag("capacities_f[" + std::to_string(i) +
             "] must be finite and > 0 (got " +
             std::to_string(capacities_f[i]) + ")");
    if (initial_cap >= capacities_f.size())
      flag("initial_cap " + std::to_string(initial_cap) +
           " out of range for " + std::to_string(capacities_f.size()) +
           " capacitors");
  }

  if (!finite(v_low) || v_low < 0.0) flag("v_low must be finite and >= 0");
  if (!finite(v_high) || v_high <= v_low)
    flag("v_high must be finite and > v_low");

  if (!finite(initial_usable_j) || initial_usable_j < 0.0)
    flag("initial_usable_j must be finite and >= 0");

  if (!finite(pmu.direct_eta) || pmu.direct_eta <= 0.0 ||
      pmu.direct_eta > 1.0)
    flag("pmu.direct_eta must be finite and in (0, 1]");

  if (!finite(backup_energy_j) || backup_energy_j < 0.0)
    flag("backup_energy_j must be finite and >= 0");
  if (!finite(restore_energy_j) || restore_energy_j < 0.0)
    flag("restore_energy_j must be finite and >= 0");

  if (dvfs.levels.empty())
    flag("dvfs.levels must name at least one frequency level");
  for (std::size_t i = 0; i < dvfs.levels.size(); ++i) {
    const double f = dvfs.levels[i];
    if (!finite(f) || f <= 0.0 || f > 1.0)
      flag("dvfs.levels[" + std::to_string(i) +
           "] must be finite and in (0, 1] (got " + std::to_string(f) + ")");
    else if (i > 0 && !(f > dvfs.levels[i - 1]))
      flag("dvfs.levels[" + std::to_string(i) +
           "] must be above dvfs.levels[" + std::to_string(i - 1) +
           "] (levels strictly ascending)");
  }
  if (!finite(dvfs.dynamic_fraction) || dvfs.dynamic_fraction < 0.0 ||
      dvfs.dynamic_fraction > 1.0)
    flag("dvfs.dynamic_fraction must be finite and in [0, 1]");

  return out;
}

void NodeConfig::validate() const {
  const std::vector<std::string> problems = findings();
  if (problems.empty()) return;
  std::ostringstream msg;
  msg << "NodeConfig invalid (" << problems.size() << " finding"
      << (problems.size() == 1 ? "" : "s") << "):";
  for (const std::string& p : problems) msg << "\n  - " << p;
  throw std::invalid_argument(msg.str());
}

}  // namespace solsched::nvp
