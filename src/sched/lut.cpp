#include "sched/lut.hpp"

#include <limits>

namespace solsched::sched {

Lut::Lut(double dmr_scale, double solar_scale, double cap_scale,
         double volt_scale)
    : dmr_scale_(dmr_scale),
      solar_scale_(solar_scale),
      cap_scale_(cap_scale),
      volt_scale_(volt_scale) {}

void Lut::insert(LutEntry entry) { entries_.push_back(std::move(entry)); }

double Lut::distance(const LutKey& a, const LutKey& b) const noexcept {
  const double d1 = (a.dmr - b.dmr) / dmr_scale_;
  const double d2 = (a.solar_energy_j - b.solar_energy_j) / solar_scale_;
  const double d3 = (a.capacity_f - b.capacity_f) / cap_scale_;
  const double d4 = (a.v0 - b.v0) / volt_scale_;
  return d1 * d1 + d2 * d2 + d3 * d3 + d4 * d4;
}

const LutEntry* Lut::lookup(const LutKey& key) const {
  const LutEntry* best = nullptr;
  double best_d = std::numeric_limits<double>::max();
  for (const auto& e : entries_) {
    const double d = distance(e.key, key);
    if (d < best_d) {
      best_d = d;
      best = &e;
    }
  }
  return best;
}

const LutEntry* Lut::lookup_best_dmr(double solar_energy_j,
                                     double capacity_f, double v0,
                                     double dmr_weight) const {
  const LutEntry* best = nullptr;
  double best_score = std::numeric_limits<double>::max();
  for (const auto& e : entries_) {
    const double d2 = (e.key.solar_energy_j - solar_energy_j) / solar_scale_;
    const double d3 = (e.key.capacity_f - capacity_f) / cap_scale_;
    const double d4 = (e.key.v0 - v0) / volt_scale_;
    const double score =
        d2 * d2 + d3 * d3 + d4 * d4 + dmr_weight * e.key.dmr;
    if (score < best_score) {
      best_score = score;
      best = &e;
    }
  }
  return best;
}

}  // namespace solsched::sched
