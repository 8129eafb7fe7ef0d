#include "sched/period_option_cache.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <utility>

#include "obs/metrics.hpp"

namespace solsched::sched {
namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

inline std::uint64_t fnv_mix(std::uint64_t h, std::uint64_t word) noexcept {
  // Byte-wise FNV-1a over the 8 bytes of `word`.
  for (int b = 0; b < 8; ++b) {
    h ^= (word >> (8 * b)) & 0xffu;
    h *= kFnvPrime;
  }
  return h;
}

inline std::uint64_t bits_of(double x) noexcept {
  // Collapse -0.0 onto +0.0 so numerically equal keys hash equally.
  if (x == 0.0) x = 0.0;
  return std::bit_cast<std::uint64_t>(x);
}

}  // namespace

PeriodOptionCache::PeriodOptionCache(std::size_t max_entries)
    : max_entries_(std::max<std::size_t>(1, max_entries)) {}

std::uint64_t PeriodOptionCache::hash_solar(const std::vector<double>& solar_w,
                                            double capacity_f, double v0) {
  std::uint64_t h = kFnvOffset;
  for (double s : solar_w) h = fnv_mix(h, bits_of(s));
  h = fnv_mix(h, bits_of(capacity_f));
  h = fnv_mix(h, bits_of(v0));
  return h;
}

std::size_t PeriodOptionCache::KeyHash::operator()(
    const Key& key) const noexcept {
  return static_cast<std::size_t>(key.solar_hash);
}

std::vector<PeriodOptionCache::Value> PeriodOptionCache::lookup_or_compute(
    const std::vector<double>& solar_w, std::span<const OptionKey> keys,
    const BatchCompute& compute) {
  std::vector<Value> out(keys.size());
  // This batch's misses (their full keys, requests, positions and
  // flights), and the flights its other hits wait on: keys in flight
  // elsewhere, or repeats of a miss earlier in this batch.
  std::vector<Key> missing;
  std::vector<OptionKey> missing_keys;
  std::vector<std::size_t> missing_at;
  std::vector<std::promise<Value>> flights;
  std::vector<std::pair<std::size_t, std::shared_future<Value>>> waits;

  std::unique_lock<std::mutex> lock(mutex_);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    Key key;
    key.solar_hash = hash_solar(solar_w, keys[i].capacity_f, keys[i].v0);
    key.capacity_f = keys[i].capacity_f;
    key.v0 = keys[i].v0;
    key.solar_w = solar_w;
    if (const auto it = map_.find(key); it != map_.end()) {
      out[i] = it->second;
    } else if (const auto it = in_flight_.find(key); it != in_flight_.end()) {
      waits.emplace_back(i, it->second);
    } else {
      ++stats_.misses;
      OBS_COUNTER_ADD("sched.option_cache.misses", 1);
      in_flight_.emplace(key, flights.emplace_back().get_future().share());
      missing.push_back(std::move(key));
      missing_keys.push_back(keys[i]);
      missing_at.push_back(i);
      continue;
    }
    ++stats_.hits;
    OBS_COUNTER_ADD("sched.option_cache.hits", 1);
  }
  lock.unlock();

  // Computed outside the lock: evaluations dominate and fan out on the
  // thread pool themselves. A failed compute is not cached; its waiters
  // rethrow the same exception.
  if (!missing.empty()) {
    std::vector<Value> values;
    values.reserve(missing.size());
    try {
      for (auto& set : compute(missing_keys))
        values.push_back(
            std::make_shared<const std::vector<PeriodOption>>(std::move(set)));
    } catch (...) {
      lock.lock();
      for (const Key& key : missing) in_flight_.erase(key);
      lock.unlock();
      for (auto& flight : flights)
        flight.set_exception(std::current_exception());
      throw;
    }

    lock.lock();
    for (std::size_t j = 0; j < missing.size(); ++j) {
      in_flight_.erase(missing[j]);
      map_.emplace(missing[j], values[j]);
      insertion_order_.push_back(std::move(missing[j]));
    }
    while (map_.size() > max_entries_) {
      map_.erase(insertion_order_.front());
      insertion_order_.pop_front();
      ++stats_.evictions;
      OBS_COUNTER_ADD("sched.option_cache.evictions", 1);
    }
    stats_.entries = map_.size();
    lock.unlock();
    for (std::size_t j = 0; j < missing.size(); ++j) {
      flights[j].set_value(values[j]);
      out[missing_at[j]] = std::move(values[j]);
    }
  }

  for (const auto& [i, pending] : waits) out[i] = pending.get();
  return out;
}

PeriodOptionCache::Value PeriodOptionCache::lookup_or_compute(
    const std::vector<double>& solar_w, double capacity_f, double v0,
    const std::function<std::vector<PeriodOption>()>& compute) {
  const OptionKey key{capacity_f, v0};
  return lookup_or_compute(solar_w, std::span(&key, 1),
                           [&](std::span<const OptionKey>) {
                             std::vector<std::vector<PeriodOption>> sets;
                             sets.push_back(compute());
                             return sets;
                           })
      .front();
}

OptionCacheStats PeriodOptionCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

void PeriodOptionCache::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  map_.clear();
  insertion_order_.clear();
  stats_ = OptionCacheStats{};
}

double PeriodOptionCache::quantize_v0(double v0, double v_low, double v_high,
                                      std::size_t steps) {
  if (steps == 0 || v_high <= v_low) return v0;
  // The DP buckets usable energy by frac = sqrt(usable / max_usable); v0
  // maps onto that axis independently of capacitance:
  //   frac^2 = (v0^2 - v_low^2) / (v_high^2 - v_low^2).
  const double span = v_high * v_high - v_low * v_low;
  const double frac2 =
      std::clamp((v0 * v0 - v_low * v_low) / span, 0.0, 1.0);
  const double frac = std::sqrt(frac2);
  const double q = std::round(frac * static_cast<double>(steps)) /
                   static_cast<double>(steps);
  return std::sqrt(v_low * v_low + span * q * q);
}

}  // namespace solsched::sched
