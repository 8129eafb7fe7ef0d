// Fixed-capacity time-series store over MetricsRegistry snapshots.
//
// The serving daemon's status.json answers "what is the daemon doing right
// now"; this store answers "what has it been doing for the last N status
// ticks". Each sample() turns one MetricsSnapshot into a flat point of
// doubles:
//  * counters become per-interval deltas against the previous sample (a
//    rate series, so a restart-reset counter simply contributes one clamped
//    zero instead of a negative spike);
//  * gauges are copied as-is;
//  * histograms become nearest-rank p50/p90/p99 over the interval's bucket
//    deltas ("<name>.p50" etc., in the histogram's native unit), falling
//    back to the cumulative distribution on the first sample.
//
// Points live in a preallocated ring: once `capacity` samples exist the
// oldest is overwritten, so memory stays bounded no matter how long the
// daemon runs. Nothing here touches the registry's enabled() switch —
// callers gate construction on obs::enabled() so an obs-off run never
// allocates a store at all.
//
// Persistence is one JSONL line per point, the whole ring written through
// util::write_atomic — the same never-torn contract as status.json. The
// reader forgives exactly one torn final line (util::replay_lines), the
// torn-tail policy of every other JSONL reader.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"

namespace solsched::obs {

/// One sampled instant: wall-clock stamp plus name -> value pairs
/// (names sorted ascending, values finite doubles).
struct TimeseriesPoint {
  std::uint64_t wall_ms = 0;
  std::vector<std::pair<std::string, double>> values;

  /// Value lookup; `fallback` when absent.
  double value_or(const std::string& name, double fallback = 0.0) const;
};

class TimeseriesStore {
 public:
  /// `capacity` >= 1 points are retained (oldest evicted first).
  explicit TimeseriesStore(std::size_t capacity);

  /// Folds one registry snapshot into the ring. `wall_ms` must be
  /// non-decreasing across calls (it is the series' time axis).
  void sample(std::uint64_t wall_ms, const MetricsSnapshot& snapshot);

  std::size_t size() const noexcept { return count_; }
  std::size_t capacity() const noexcept { return capacity_; }
  /// Points oldest-first; `i` < size().
  const TimeseriesPoint& at(std::size_t i) const;

  /// Serializes the ring oldest-first as JSONL through util::write_atomic.
  /// False on I/O failure (the target file is left untouched, no .tmp).
  bool write_jsonl(const std::string& path) const;

  /// Reads a write_jsonl() file through the one JSON reader (obs/json).
  /// A torn final line is dropped, not an error; any earlier malformed
  /// line is, and so is a point whose "t" is not an unsigned integer or
  /// whose values are not numbers. On failure returns false with *error
  /// set.
  static bool read_jsonl(const std::string& path,
                         std::vector<TimeseriesPoint>* out,
                         std::string* error);

 private:
  std::size_t capacity_;
  std::vector<TimeseriesPoint> ring_;
  std::size_t head_ = 0;   ///< Slot the next sample lands in.
  std::size_t count_ = 0;

  /// Previous cumulative values, for counter/histogram deltas.
  std::unordered_map<std::string, std::uint64_t> prev_counters_;
  std::unordered_map<std::string, std::vector<std::uint64_t>> prev_buckets_;
};

/// Nearest-rank percentile over histogram bucket counts: the upper bound of
/// the bucket containing the ceil(q * total)'th sample; the overflow bucket
/// reports twice the last bound as a sentinel magnitude. 0 when empty.
double histogram_percentile(const std::vector<double>& upper_bounds,
                            const std::vector<std::uint64_t>& bucket_counts,
                            double q) noexcept;

}  // namespace solsched::obs
