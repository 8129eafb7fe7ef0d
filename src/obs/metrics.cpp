#include "obs/metrics.hpp"

#include <algorithm>
#include <bit>
#include <cstdlib>
#include <stdexcept>

#include "obs/json.hpp"

namespace solsched::obs {
namespace {

bool env_default() {
  const char* e = std::getenv("SOLSCHED_OBS");
  if (!e) return false;
  const std::string v(e);
  return v == "1" || v == "true" || v == "on";
}

std::atomic<bool>& enabled_flag() noexcept {
  static std::atomic<bool> flag{env_default()};
  return flag;
}

std::size_t next_thread_ordinal() noexcept {
  static std::atomic<std::size_t> next{0};
  return next.fetch_add(1, std::memory_order_relaxed);
}

bool is_timing_name(const std::string& name) {
  if (name.rfind("span.", 0) == 0) return true;
  if (name.rfind("util.thread_pool.", 0) == 0) return true;
  return name.size() >= 3 && name.compare(name.size() - 3, 3, "_us") == 0;
}

}  // namespace

bool enabled() noexcept {
  return enabled_flag().load(std::memory_order_relaxed);
}

void set_enabled(bool on) noexcept {
  enabled_flag().store(on, std::memory_order_relaxed);
}

std::size_t thread_ordinal() noexcept {
  thread_local std::size_t ordinal = next_thread_ordinal();
  return ordinal;
}

// ---- Counter -------------------------------------------------------------

void Counter::add(std::uint64_t delta) noexcept {
  shards_[thread_ordinal() % kMetricShards].value.fetch_add(
      delta, std::memory_order_relaxed);
}

std::uint64_t Counter::total() const noexcept {
  std::uint64_t sum = 0;
  for (const Shard& s : shards_) sum += s.value.load(std::memory_order_relaxed);
  return sum;
}

void Counter::reset() noexcept {
  for (Shard& s : shards_) s.value.store(0, std::memory_order_relaxed);
}

// ---- Gauge ---------------------------------------------------------------

void Gauge::set(double value) noexcept {
  bits_.store(std::bit_cast<std::uint64_t>(value), std::memory_order_relaxed);
}

double Gauge::value() const noexcept {
  return std::bit_cast<double>(bits_.load(std::memory_order_relaxed));
}

void Gauge::reset() noexcept {
  bits_.store(0, std::memory_order_relaxed);
}

// ---- Histogram -----------------------------------------------------------

Histogram::Shard::Shard(std::size_t n_buckets)
    : buckets(new std::atomic<std::uint64_t>[n_buckets]) {
  for (std::size_t b = 0; b < n_buckets; ++b)
    buckets[b].store(0, std::memory_order_relaxed);
}

Histogram::Histogram(std::vector<double> upper_bounds)
    : bounds_(std::move(upper_bounds)) {
  if (bounds_.empty())
    throw std::invalid_argument("Histogram: need at least one bucket bound");
  if (!std::is_sorted(bounds_.begin(), bounds_.end()) ||
      std::adjacent_find(bounds_.begin(), bounds_.end()) != bounds_.end())
    throw std::invalid_argument(
        "Histogram: bucket bounds must be strictly ascending");
  shards_.reserve(kMetricShards);
  for (std::size_t s = 0; s < kMetricShards; ++s)
    shards_.push_back(std::make_unique<Shard>(bounds_.size() + 1));
}

void Histogram::observe(double x) noexcept {
  const std::size_t bucket =
      static_cast<std::size_t>(std::lower_bound(bounds_.begin(), bounds_.end(),
                                                x) -
                               bounds_.begin());
  Shard& shard = *shards_[thread_ordinal() % kMetricShards];
  shard.buckets[bucket].fetch_add(1, std::memory_order_relaxed);
  shard.count.fetch_add(1, std::memory_order_relaxed);
  // CAS accumulation keeps the shard sum exact under concurrent observers
  // that happen to share a shard.
  std::uint64_t cur = shard.sum_bits.load(std::memory_order_relaxed);
  for (;;) {
    const double next = std::bit_cast<double>(cur) + x;
    if (shard.sum_bits.compare_exchange_weak(
            cur, std::bit_cast<std::uint64_t>(next),
            std::memory_order_relaxed))
      return;
  }
}

Histogram::Totals Histogram::totals() const {
  Totals t;
  t.bucket_counts.assign(bounds_.size() + 1, 0);
  for (const auto& shard : shards_) {
    for (std::size_t b = 0; b <= bounds_.size(); ++b)
      t.bucket_counts[b] += shard->buckets[b].load(std::memory_order_relaxed);
    t.count += shard->count.load(std::memory_order_relaxed);
    t.sum += std::bit_cast<double>(
        shard->sum_bits.load(std::memory_order_relaxed));
  }
  return t;
}

void Histogram::reset() noexcept {
  for (const auto& shard : shards_) {
    for (std::size_t b = 0; b <= bounds_.size(); ++b)
      shard->buckets[b].store(0, std::memory_order_relaxed);
    shard->count.store(0, std::memory_order_relaxed);
    shard->sum_bits.store(0, std::memory_order_relaxed);
  }
}

// ---- MetricsSnapshot -----------------------------------------------------

std::string MetricsSnapshot::to_json() const {
  std::string out = "{\n  \"counters\": {";
  for (std::size_t i = 0; i < counters.size(); ++i) {
    out += i ? ",\n    \"" : "\n    \"";
    out += json_escape(counters[i].first);
    out += "\": ";
    out += std::to_string(counters[i].second);
  }
  out += counters.empty() ? "},\n" : "\n  },\n";
  out += "  \"gauges\": {";
  for (std::size_t i = 0; i < gauges.size(); ++i) {
    out += i ? ",\n    \"" : "\n    \"";
    out += json_escape(gauges[i].first);
    out += "\": ";
    out += json_number(gauges[i].second);
  }
  out += gauges.empty() ? "},\n" : "\n  },\n";
  out += "  \"histograms\": {";
  for (std::size_t i = 0; i < histograms.size(); ++i) {
    const HistogramEntry& h = histograms[i];
    out += i ? ",\n    \"" : "\n    \"";
    out += json_escape(h.name);
    out += "\": {\"upper_bounds\": [";
    for (std::size_t b = 0; b < h.upper_bounds.size(); ++b) {
      if (b) out += ",";
      out += json_number(h.upper_bounds[b]);
    }
    out += "], \"bucket_counts\": [";
    for (std::size_t b = 0; b < h.bucket_counts.size(); ++b) {
      if (b) out += ",";
      out += std::to_string(h.bucket_counts[b]);
    }
    out += "], \"count\": ";
    out += std::to_string(h.count);
    out += ", \"sum\": ";
    out += json_number(h.sum);
    out += "}";
  }
  out += histograms.empty() ? "}\n}\n" : "\n  }\n}\n";
  return out;
}

MetricsSnapshot MetricsSnapshot::without_timing() const {
  MetricsSnapshot out;
  for (const auto& c : counters)
    if (!is_timing_name(c.first)) out.counters.push_back(c);
  for (const auto& g : gauges)
    if (!is_timing_name(g.first)) out.gauges.push_back(g);
  for (const auto& h : histograms)
    if (!is_timing_name(h.name)) out.histograms.push_back(h);
  return out;
}

std::uint64_t MetricsSnapshot::counter_or(const std::string& name,
                                          std::uint64_t fallback) const {
  for (const auto& c : counters)
    if (c.first == name) return c.second;
  return fallback;
}

// ---- MetricsRegistry -----------------------------------------------------

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry registry;
  return registry;
}

Counter& MetricsRegistry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      std::vector<double> upper_bounds) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>(std::move(upper_bounds));
  return *slot;
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  MetricsSnapshot out;
  for (const auto& [name, c] : counters_)
    out.counters.emplace_back(name, c->total());
  for (const auto& [name, g] : gauges_)
    out.gauges.emplace_back(name, g->value());
  for (const auto& [name, h] : histograms_) {
    MetricsSnapshot::HistogramEntry entry;
    entry.name = name;
    entry.upper_bounds = h->upper_bounds();
    Histogram::Totals t = h->totals();
    entry.bucket_counts = std::move(t.bucket_counts);
    entry.count = t.count;
    entry.sum = t.sum;
    out.histograms.push_back(std::move(entry));
  }
  return out;
}

void MetricsRegistry::reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [name, c] : counters_) c->reset();
  for (auto& [name, g] : gauges_) g->reset();
  for (auto& [name, h] : histograms_) h->reset();
}

}  // namespace solsched::obs
