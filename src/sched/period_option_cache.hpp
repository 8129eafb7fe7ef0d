// Memoization of PeriodOptimizer::pareto_options.
//
// The DP oracle evaluates the same (period solar, capacity, start voltage)
// triple repeatedly: every occupied (capacitor, bucket) cell of a layer
// calls pareto_options on that layer's solar vector, and the backtrack
// re-derives the option set of every path state verbatim for the Eq. 13
// LUT. The cache turns those repeats into lookups.
//
// Key = (FNV-1a hash of the solar slot bit patterns, capacity, v0). The
// caller is responsible for quantizing v0 *before* both the lookup and the
// underlying evaluation (OptimalConfig::v0_quant_steps), so a cached run is
// bit-identical to an uncached run by construction: the cache only ever
// returns what pareto_options would have computed for the exact same
// arguments. Full keys (including the solar vector) are stored and compared
// so hash collisions cannot alias entries.
//
// A DP layer asks for all its labels' keys in one batch: the batch's
// missing keys go to one compute call, which the DP runs as one parallel
// region (PeriodOptimizer's batched pareto_options). A single-key lookup
// is the one-key batch.
//
// Thread safety: all operations take an internal mutex, so a cache may be
// shared across schedulers (e.g. the training oracle and the comparison
// run's Optimal row) even when policy rows execute on the thread pool.
// Lookups are single-flight: keys resolve in request order, a key's first
// request is its one miss, and a repeat or a key another thread is
// computing is a hit that waits for that result, so the counters equal a
// serial run's at any thread count.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "sched/period_optimizer.hpp"

namespace solsched::sched {

/// Hit/miss/eviction counters, surfaced next to dp_evaluations_.
struct OptionCacheStats {
  std::size_t hits = 0;
  std::size_t misses = 0;
  std::size_t evictions = 0;
  std::size_t entries = 0;

  double hit_rate() const noexcept {
    const std::size_t total = hits + misses;
    return total == 0 ? 0.0
                      : static_cast<double>(hits) / static_cast<double>(total);
  }
};

/// Bounded memo table of per-period Pareto option sets.
class PeriodOptionCache {
 public:
  /// `max_entries` bounds memory; the oldest insertion is evicted first.
  explicit PeriodOptionCache(std::size_t max_entries = 1 << 16);

  using Value = std::shared_ptr<const std::vector<PeriodOption>>;
  /// Returns one option set per given key, in key order.
  using BatchCompute = std::function<std::vector<std::vector<PeriodOption>>(
      std::span<const OptionKey>)>;

  /// Returns the cached option set of (solar_w, key) for every key, in key
  /// order, calling `compute` once with the keys no request has asked for
  /// yet (not at all when there are none). Returned pointers stay valid
  /// after eviction (entries are shared_ptr-owned). If `compute` throws,
  /// none of its keys is cached, they leave the in-flight set, and every
  /// request waiting on one of them rethrows the exception.
  std::vector<Value> lookup_or_compute(const std::vector<double>& solar_w,
                                       std::span<const OptionKey> keys,
                                       const BatchCompute& compute);

  /// The one-key batch: `compute` returns the option set of (solar_w,
  /// capacity_f, v0).
  Value lookup_or_compute(
      const std::vector<double>& solar_w, double capacity_f, double v0,
      const std::function<std::vector<PeriodOption>()>& compute);

  OptionCacheStats stats() const;
  void clear();

  /// Snaps v0 onto a grid of `steps` points spanning [v_low, v_high],
  /// uniform in the DP's sqrt-usable-energy measure (the bucket axis), so
  /// "bucket resolution" means steps == energy_buckets. steps == 0 returns
  /// v0 unchanged. Idempotent: quantize(quantize(x)) == quantize(x).
  static double quantize_v0(double v0, double v_low, double v_high,
                            std::size_t steps);

 private:
  struct Key {
    std::uint64_t solar_hash = 0;
    double capacity_f = 0.0;
    double v0 = 0.0;
    std::vector<double> solar_w;  ///< Full vector: collision-proof equality.

    bool operator==(const Key& other) const {
      return solar_hash == other.solar_hash &&
             capacity_f == other.capacity_f && v0 == other.v0 &&
             solar_w == other.solar_w;
    }
  };
  struct KeyHash {
    std::size_t operator()(const Key& key) const noexcept;
  };

  static std::uint64_t hash_solar(const std::vector<double>& solar_w,
                                  double capacity_f, double v0);

  mutable std::mutex mutex_;
  std::size_t max_entries_;
  std::unordered_map<Key, Value, KeyHash> map_;
  std::unordered_map<Key, std::shared_future<Value>, KeyHash> in_flight_;
  std::deque<Key> insertion_order_;  ///< FIFO eviction queue.
  OptionCacheStats stats_;
};

}  // namespace solsched::sched
