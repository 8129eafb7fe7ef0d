// Static configuration of the simulated sensor node.
#pragma once

#include <string>
#include <vector>

#include "solar/time_grid.hpp"
#include "storage/leakage.hpp"
#include "storage/pmu.hpp"
#include "storage/regulator.hpp"

namespace solsched::nvp {

/// Node-wide DVFS capability (related work [5, 6, 8]): discrete frequency
/// factors f in (0, 1], execution time scaling 1/f, and power scaling
/// P(f) = P_nom * (a f^3 + (1 - a)) — a cubic dynamic component (V roughly
/// proportional to f) over a static floor. Slowing down reduces *power*
/// superlinearly but total *energy* only sublinearly, which is the whole
/// DVFS trade: it buys load-matching resolution, not free energy. Only a
/// policy that fills SlotContext::frequencies uses it; the on/off policies
/// run every task at f = 1 without touching the power law.
struct DvfsModel {
  /// Available frequency factors, strictly ascending, each in (0, 1].
  std::vector<double> levels = {0.5, 0.75, 1.0};
  /// Dynamic-power share at full speed (the rest is static/leakage).
  double dynamic_fraction = 0.7;

  /// Power multiplier at frequency factor f.
  double power_scale(double f) const noexcept {
    return dynamic_fraction * f * f * f + (1.0 - dynamic_fraction);
  }

  /// Energy-per-work multiplier at factor f (power / speed): > 1 below
  /// full speed whenever a static floor exists.
  double energy_scale(double f) const noexcept {
    return f > 0.0 ? power_scale(f) / f : 1e18;
  }
};

/// Everything fixed at design time: the time hierarchy, the distributed
/// capacitor bank, the regulator/leakage physics and the PMU.
struct NodeConfig {
  solar::TimeGrid grid = solar::default_grid();
  std::vector<double> capacities_f = {1.0, 10.0, 50.0, 100.0};
  double v_low = 0.5;
  double v_high = 5.0;
  storage::PmuConfig pmu{};
  storage::RegulatorModel regulators = storage::RegulatorModel::fitted_default();
  storage::LeakageModel leakage = storage::LeakageModel::fitted_default();
  /// Usable energy pre-loaded into the initially selected capacitor (J).
  double initial_usable_j = 0.0;
  /// Index of the capacitor selected at simulation start.
  std::size_t initial_cap = 0;

  // -- NVP backup/restore model (DESIGN.md §11) -----------------------------
  // A *brownout* (load infeasible for a slot) stays free: the NVPs idle with
  // their nonvolatile state intact. A *power failure* (injected blackout:
  // supply and storage both cut) is different — the node checkpoints its
  // volatile peripherals into FRAM on the way down and replays them on
  // recovery, at a fixed energy cost drawn from the selected capacitor.
  /// Checkpoint cost charged once at power-failure entry (J).
  double backup_energy_j = 0.05;
  /// Replay/reboot cost charged at the first powered slot after an outage
  /// (J). Paid by the volatile baseline too (a cold reboot is not free).
  double restore_energy_j = 0.02;
  /// Ablation: model a volatile processor instead of an NVP — a power
  /// failure wipes all in-period task progress instead of checkpointing it
  /// (completed results persist; they were committed before the failure).
  bool volatile_baseline = false;

  /// Frequency levels and power law the simulator charges a scaled task.
  DvfsModel dvfs{};

  /// Builds the bank described by this config.
  storage::CapacitorBank make_bank() const;

  /// All invalid-parameter findings, one human-readable line each; empty
  /// means the config is usable. Aggregated so a misconfigured node fails
  /// with every problem listed at once instead of piecemeal deep in the sim.
  std::vector<std::string> findings() const;

  /// Throws std::invalid_argument with every finding joined into one
  /// message. Called at nvp::simulate entry and by deserialize_controller.
  void validate() const;
};

}  // namespace solsched::nvp
