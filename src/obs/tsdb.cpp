#include "obs/tsdb.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string_view>

#include "obs/json_escape.hpp"
#include "util/durable.hpp"

namespace solsched::obs {
namespace {

/// Shortest round-trip decimal form of a double ("1", "0.125", "1e+30").
std::string fmt_double(double x) {
  char buf[32];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), x);
  return ec == std::errc() ? std::string(buf, end) : std::string("0");
}

/// Counter delta against the previous sample. A counter that went backwards
/// (registry reset between samples) clamps to zero instead of wrapping into
/// an astronomically large rate.
std::uint64_t clamped_delta(std::uint64_t now, std::uint64_t before) {
  return now >= before ? now - before : 0;
}

// ---- JSONL line parser ----------------------------------------------------
// The reader accepts exactly what write_jsonl emits:
//   {"t":<u64>,"v":{"name":<number>,...}}
// It is a strict scanner over that one shape, not a general JSON parser —
// the general one lives in the analysis layer, which must stay above obs.

struct LineCursor {
  const char* p;
  const char* end;

  bool literal(const char* text) {
    const std::size_t n = std::char_traits<char>::length(text);
    if (static_cast<std::size_t>(end - p) < n ||
        std::char_traits<char>::compare(p, text, n) != 0)
      return false;
    p += n;
    return true;
  }

  bool u64(std::uint64_t* out) {
    const auto [next, ec] = std::from_chars(p, end, *out);
    if (ec != std::errc()) return false;
    p = next;
    return true;
  }

  bool number(double* out) {
    // from_chars<double> is not universally available; strtod on a bounded
    // copy keeps this portable. Numbers we wrote are < 32 chars.
    char buf[64];
    std::size_t n = 0;
    while (p + n < end && n < sizeof(buf) - 1 &&
           (std::isdigit(static_cast<unsigned char>(p[n])) || p[n] == '-' ||
            p[n] == '+' || p[n] == '.' || p[n] == 'e' || p[n] == 'E'))
      ++n;
    if (n == 0) return false;
    std::copy(p, p + n, buf);
    buf[n] = '\0';
    char* parse_end = nullptr;
    *out = std::strtod(buf, &parse_end);
    if (parse_end != buf + n || !std::isfinite(*out)) return false;
    p += n;
    return true;
  }

  bool string(std::string* out) {
    if (p >= end || *p != '"') return false;
    ++p;
    out->clear();
    while (p < end && *p != '"') {
      if (*p != '\\') {
        out->push_back(*p++);
        continue;
      }
      // The escapes json_escape writes: \" \\ \n \r \t and \u00XX.
      if (++p >= end) return false;
      switch (*p++) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'u': {
          unsigned code = 0;
          const auto [next, ec] = std::from_chars(p, std::min(p + 4, end),
                                                  code, 16);
          if (ec != std::errc() || next != p + 4 || code >= 0x20)
            return false;
          out->push_back(static_cast<char>(code));
          p = next;
          break;
        }
        default: return false;
      }
    }
    if (p >= end) return false;
    ++p;  // Closing quote.
    return true;
  }
};

bool parse_point_line(std::string_view line, TimeseriesPoint* out) {
  LineCursor cur{line.data(), line.data() + line.size()};
  out->values.clear();
  if (!cur.literal("{\"t\":") || !cur.u64(&out->wall_ms) ||
      !cur.literal(",\"v\":{"))
    return false;
  bool first = true;
  while (!cur.literal("}}")) {
    if (!first && !cur.literal(",")) return false;
    first = false;
    std::string name;
    double value = 0.0;
    if (!cur.string(&name) || !cur.literal(":") || !cur.number(&value))
      return false;
    out->values.emplace_back(std::move(name), value);
  }
  return cur.p == cur.end;
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
      text += fmt_double(point.values[k].second);
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
    util::replay_lines(util::read_file(path), path,
                       [&](std::string_view line, std::size_t) {
                         TimeseriesPoint point;
                         if (!parse_point_line(line, &point)) return false;
                         out->push_back(std::move(point));
                         return true;
                       });
  } catch (const std::runtime_error& e) {  // IoError or ReplayError.
    if (error) *error = e.what();
    return false;
  }
  return true;
}

}  // namespace solsched::obs
