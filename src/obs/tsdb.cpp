#include "obs/tsdb.hpp"

#include <cmath>
#include <string_view>

#include "obs/json.hpp"
#include "util/durable.hpp"

namespace solsched::obs {
namespace {

/// Counter delta against the previous sample. A counter that went backwards
/// (registry reset between samples) clamps to zero instead of wrapping into
/// an astronomically large rate.
std::uint64_t clamped_delta(std::uint64_t now, std::uint64_t before) {
  return now >= before ? now - before : 0;
}

}  // namespace

double TimeseriesPoint::value_or(const std::string& name,
                                 double fallback) const {
  for (const auto& [key, value] : values)
    if (key == name) return value;
  return fallback;
}

double histogram_percentile(const std::vector<double>& upper_bounds,
                            const std::vector<std::uint64_t>& bucket_counts,
                            double q) noexcept {
  std::uint64_t total = 0;
  for (std::uint64_t c : bucket_counts) total += c;
  if (total == 0 || upper_bounds.empty()) return 0.0;
  std::uint64_t rank =
      static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(total)));
  if (rank == 0) rank = 1;
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < bucket_counts.size(); ++i) {
    cumulative += bucket_counts[i];
    if (cumulative >= rank)
      return i < upper_bounds.size() ? upper_bounds[i]
                                     : 2.0 * upper_bounds.back();
  }
  return 2.0 * upper_bounds.back();
}

TimeseriesStore::TimeseriesStore(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {
  ring_.resize(capacity_);
}

void TimeseriesStore::sample(std::uint64_t wall_ms,
                             const MetricsSnapshot& snapshot) {
  TimeseriesPoint& point = ring_[head_];
  point.wall_ms = wall_ms;
  point.values.clear();
  // The snapshot's families are each name-sorted and the families are
  // appended in a fixed order, so every point's key order is deterministic.
  for (const auto& [name, total] : snapshot.counters) {
    const auto it = prev_counters_.find(name);
    const std::uint64_t before = it == prev_counters_.end() ? 0 : it->second;
    point.values.emplace_back(
        name, static_cast<double>(clamped_delta(total, before)));
    prev_counters_[name] = total;
  }
  for (const auto& [name, value] : snapshot.gauges)
    if (std::isfinite(value)) point.values.emplace_back(name, value);
  for (const auto& h : snapshot.histograms) {
    std::vector<std::uint64_t> delta = h.bucket_counts;
    const auto it = prev_buckets_.find(h.name);
    if (it != prev_buckets_.end() && it->second.size() == delta.size())
      for (std::size_t i = 0; i < delta.size(); ++i)
        delta[i] = clamped_delta(delta[i], it->second[i]);
    point.values.emplace_back(
        h.name + ".p50", histogram_percentile(h.upper_bounds, delta, 0.50));
    point.values.emplace_back(
        h.name + ".p90", histogram_percentile(h.upper_bounds, delta, 0.90));
    point.values.emplace_back(
        h.name + ".p99", histogram_percentile(h.upper_bounds, delta, 0.99));
    prev_buckets_[h.name] = h.bucket_counts;
  }
  head_ = (head_ + 1) % capacity_;
  if (count_ < capacity_) ++count_;
}

const TimeseriesPoint& TimeseriesStore::at(std::size_t i) const {
  // Oldest point: head_ when the ring is full, slot 0 otherwise.
  const std::size_t oldest = count_ == capacity_ ? head_ : 0;
  return ring_[(oldest + i) % capacity_];
}

bool TimeseriesStore::write_jsonl(const std::string& path) const {
  std::string text;
  for (std::size_t i = 0; i < count_; ++i) {
    const TimeseriesPoint& point = at(i);
    text += "{\"t\":" + std::to_string(point.wall_ms) + ",\"v\":{";
    for (std::size_t k = 0; k < point.values.size(); ++k) {
      if (k) text += ',';
      text += '"' + json_escape(point.values[k].first) + "\":";
      text += json_number(point.values[k].second);
    }
    text += "}}\n";
  }
  try {
    util::write_atomic(path, text);
  } catch (const util::IoError&) {
    return false;
  }
  return true;
}

bool TimeseriesStore::read_jsonl(const std::string& path,
                                 std::vector<TimeseriesPoint>* out,
                                 std::string* error) {
  out->clear();
  try {
    util::replay_lines(
        util::read_file(path), path,
        [&](std::string_view line, std::size_t line_no) {
          JsonValue doc;
          try {
            doc = parse_json(line);
          } catch (const std::runtime_error&) {
            return false;  // Forgiven only as the torn final line.
          }
          const JsonRecord rec{doc, path, line_no};
          TimeseriesPoint point;
          point.wall_ms = rec.u64("t");
          const JsonValue* values = doc.find("v");
          if (values == nullptr || !values->is_object())
            rec.fail("missing object \"v\"");
          for (const auto& [name, value] : values->object) {
            if (!value.is_number())
              rec.fail("\"" + name + "\" is not a number");
            point.values.emplace_back(name, value.number);
          }
          out->push_back(std::move(point));
          return true;
        });
  } catch (const std::runtime_error& e) {  // IoError, ReplayError, a bad point.
    if (error) *error = e.what();
    return false;
  }
  return true;
}

}  // namespace solsched::obs
