// The offline lookup table of Eq. 13.
//
// Maps (DMR target, period solar energy, capacitor, initial voltage) to the
// minimum consumed capacitor energy E^c, the executed-task vector te and the
// scheduling-pattern index α. The offline optimizer populates it; queries
// use the closest stored input when an exact match is absent, exactly as the
// paper approximates real inputs by their nearest LUT entry.
#pragma once

#include <cstddef>
#include <vector>

namespace solsched::sched {

/// LUT input tuple.
struct LutKey {
  double dmr = 0.0;            ///< DMR_{i,j} of the option.
  double solar_energy_j = 0.0; ///< Σ P^s Δt over the period.
  double capacity_f = 0.0;     ///< C_{h,i}.
  double v0 = 0.0;             ///< V^sc at the period start.
};

/// LUT output tuple (plus its key for inspection).
struct LutEntry {
  LutKey key;
  double consumed_j = 0.0;  ///< Minimum E^c.
  double alpha = 0.0;       ///< Pattern-selection index (Eq. 18).
  std::vector<bool> te;     ///< Executed-task bits.
};

/// Nearest-neighbour lookup table over normalized key space.
class Lut {
 public:
  /// Normalization scales: distances divide each key component by these, so
  /// heterogeneous units compare sensibly. Defaults suit the node's ranges.
  explicit Lut(double dmr_scale = 1.0, double solar_scale = 50.0,
               double cap_scale = 50.0, double volt_scale = 5.0);

  void insert(LutEntry entry);

  std::size_t size() const noexcept { return entries_.size(); }
  bool empty() const noexcept { return entries_.empty(); }
  const std::vector<LutEntry>& entries() const noexcept { return entries_; }

  /// Closest entry by normalized Euclidean distance; nullptr when empty.
  const LutEntry* lookup(const LutKey& key) const;

  /// Online planning query: among entries near (solar, capacity, v0) —
  /// ignoring the DMR dimension — returns the one promising the lowest
  /// DMR, trading distance against DMR with the given weight. nullptr when
  /// empty.
  const LutEntry* lookup_best_dmr(double solar_energy_j, double capacity_f,
                                  double v0, double dmr_weight = 1.0) const;

 private:
  double distance(const LutKey& a, const LutKey& b) const noexcept;

  double dmr_scale_, solar_scale_, cap_scale_, volt_scale_;
  std::vector<LutEntry> entries_;
};

}  // namespace solsched::sched
