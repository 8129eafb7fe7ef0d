#include "storage/pmu.hpp"

#include <algorithm>

namespace solsched::storage {

double Pmu::supplyable_j(double solar_w, const CapacitorBank& bank,
                         double dt_s) const {
  const double direct_j = solar_w * dt_s * config_.direct_eta;
  return direct_j + bank.selected().deliverable_j();
}

SlotFlow Pmu::run_slot(double solar_w, double load_w, CapacitorBank& bank,
                       double dt_s) const {
  SlotFlow flow;
  flow.solar_in_j = solar_w * dt_s;
  flow.load_request_j = load_w * dt_s;

  const double direct_available_j = flow.solar_in_j * config_.direct_eta;

  // Feasibility check first so a brownout slot never half-drains the
  // capacitor: either the load runs for the whole slot or not at all
  // (the NVPs checkpoint and the slot's work is lost). The capacitor's
  // deliverable energy (a regulator-curve evaluation) is read only when
  // the direct channel alone falls short. That is exact: deliverable_j()
  // is never negative (usable energy is clamped at 0, every efficiency
  // curve at a positive floor), and rounding is monotone, so adding it
  // cannot turn a feasible sum infeasible.
  const bool feasible =
      flow.load_request_j <= direct_available_j + 1e-12 ||
      flow.load_request_j <=
          direct_available_j + bank.selected().deliverable_j() + 1e-12;

  double load_j = flow.load_request_j;
  if (!feasible) {
    flow.brownout = true;
    load_j = 0.0;
  }

  // Direct channel serves the load first.
  flow.direct_supplied_j = std::min(load_j, direct_available_j);
  const double deficit_j = load_j - flow.direct_supplied_j;

  if (deficit_j > 0.0) {
    const DischargeResult d = bank.selected().discharge(deficit_j);
    flow.cap_supplied_j = d.delivered_j;
    flow.conversion_loss_j += d.conversion_loss_j;
  } else {
    // Solar surplus (beyond what the direct channel consumed for the load)
    // migrates into the selected capacitor (Eq. 2, ΔE > 0).
    const double consumed_solar_j =
        config_.direct_eta > 0.0 ? flow.direct_supplied_j / config_.direct_eta
                                 : 0.0;
    const double surplus_j = flow.solar_in_j - consumed_solar_j;
    if (surplus_j > 0.0) {
      const ChargeResult c = bank.selected().charge(surplus_j);
      flow.migrated_in_j = c.accepted_j;
      flow.stored_j = c.stored_j;
      flow.conversion_loss_j += c.conversion_loss_j;
      flow.spilled_j += c.spilled_j;
    }
  }

  // Direct-channel conversion loss on the served energy.
  if (config_.direct_eta > 0.0)
    flow.conversion_loss_j +=
        flow.direct_supplied_j * (1.0 - config_.direct_eta) /
        config_.direct_eta;

  flow.leakage_loss_j = bank.apply_leakage_all(dt_s);
  return flow;
}

}  // namespace solsched::storage
