// Bank of H distributed super capacitors (Fig. 3).
//
// The PMU selects exactly one capacitor at a time for the store-and-use
// channel; unselected capacitors hold their charge but keep leaking. The
// online selection rule (Eq. 22) decides when switching is worthwhile.
#pragma once

#include <cstddef>
#include <vector>

#include "storage/supercap.hpp"

namespace solsched::storage {

/// The node's distributed super-capacitor bank.
class CapacitorBank {
 public:
  /// Builds one capacitor per capacity in `capacities_f`, all sharing the
  /// given regulator and leakage models and starting at V_L.
  CapacitorBank(const std::vector<double>& capacities_f,
                const RegulatorModel& regulators, const LeakageModel& leakage,
                double v_low = 0.5, double v_high = 5.0);

  std::size_t size() const noexcept { return caps_.size(); }

  /// Index of the capacitor currently wired into the channel.
  std::size_t selected_index() const noexcept { return selected_; }

  /// Selects capacitor `index` for subsequent charge/discharge.
  /// Throws std::out_of_range on a bad index.
  void select(std::size_t index);

  SuperCapacitor& selected() { return caps_[selected_]; }
  const SuperCapacitor& selected() const { return caps_[selected_]; }

  SuperCapacitor& at(std::size_t index) { return caps_.at(index); }
  const SuperCapacitor& at(std::size_t index) const { return caps_.at(index); }

  /// Voltages of every capacitor (DBN input vector component).
  std::vector<double> voltages() const;

  /// Capacities of every capacitor (F), in bank order.
  std::vector<double> capacities() const;

  /// Sum of stored energy across the bank (J).
  double total_energy_j() const;

  /// Applies one step of leakage to *all* capacitors; returns leaked J.
  double apply_leakage_all(double dt_s);

 private:
  std::vector<SuperCapacitor> caps_;
  std::size_t selected_ = 0;
};

}  // namespace solsched::storage
