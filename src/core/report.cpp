#include "core/report.hpp"

#include <sstream>
#include <string_view>

#include "obs/analysis/attribution.hpp"
#include "util/csv.hpp"
#include "util/durable.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace solsched::core {

std::string summarize(const nvp::SimResult& result, const std::string& title,
                      std::size_t n_days) {
  std::ostringstream out;
  out << title << "\n";
  out << "  periods: " << result.periods.size()
      << ", overall DMR: " << util::fmt_pct(result.overall_dmr())
      << ", energy utilization: "
      << util::fmt_pct(result.energy_utilization())
      << ", migration efficiency: "
      << util::fmt_pct(result.migration_efficiency()) << "\n";
  out << "  solar harvested: " << util::fmt(result.total_solar_j(), 0)
      << " J, served to load: " << util::fmt(result.total_served_j(), 0)
      << " J, losses: " << util::fmt(result.total_loss_j(), 0)
      << " J, brownout slots: " << result.total_brownouts() << "\n";
  if (n_days > 1) {
    out << "  per-day DMR:";
    for (std::size_t d = 0; d < n_days; ++d)
      out << " " << util::fmt_pct(result.day_dmr(d));
    out << "\n";
  }
  return out.str();
}

std::string to_csv(const nvp::SimResult& result) {
  util::CsvWriter csv({"day", "period", "dmr", "misses", "completions",
                       "brownouts", "cap_index", "solar_j", "served_j",
                       "stored_j", "cap_supplied_j", "conversion_loss_j",
                       "leakage_loss_j", "spilled_j"});
  for (const auto& p : result.periods)
    csv.add_row(std::vector<double>{
        static_cast<double>(p.day), static_cast<double>(p.period), p.dmr,
        static_cast<double>(p.misses), static_cast<double>(p.completions),
        static_cast<double>(p.brownout_slots),
        static_cast<double>(p.cap_index), p.solar_in_j, p.load_served_j,
        p.stored_j, p.cap_supplied_j, p.conversion_loss_j, p.leakage_loss_j,
        p.spilled_j});
  return csv.str();
}

std::string metrics_report(const obs::MetricsSnapshot& snapshot) {
  if (snapshot.counters.empty() && snapshot.gauges.empty() &&
      snapshot.histograms.empty()) {
    if (!obs::enabled())
      return "observability disabled (SOLSCHED_OBS unset)\n";
    return {};
  }

  std::ostringstream out;
  out << "metrics\n";

  util::TextTable counters;
  counters.set_header({"counter", "total"});
  for (const auto& [name, total] : snapshot.counters)
    counters.add_row({name, std::to_string(total)});
  if (!snapshot.counters.empty()) out << counters.str();

  if (!snapshot.gauges.empty()) {
    util::TextTable gauges;
    gauges.set_header({"gauge", "value"});
    for (const auto& [name, value] : snapshot.gauges)
      gauges.add_row({name, util::fmt(value, 4)});
    out << gauges.str();
  }

  for (const auto& h : snapshot.histograms) {
    out << h.name << ": n=" << h.count << " sum=" << util::fmt(h.sum, 4);
    if (h.count > 0)
      out << " mean=" << util::fmt(h.sum / static_cast<double>(h.count), 4);
    // Nearest-rank quantiles from the bucket counts (same index rule as the
    // campaign aggregates): the quantile resolves to the upper bound of the
    // bucket holding that rank — "<=bound", or ">bound" for the overflow
    // bucket — so latency histograms read without the inspect CLI.
    if (h.count > 0 && !h.bucket_counts.empty()) {
      for (const std::size_t percent : {std::size_t{50}, std::size_t{90},
                                        std::size_t{99}}) {
        const std::uint64_t rank = util::nearest_rank_index(
            static_cast<std::size_t>(h.count), percent);
        std::uint64_t cumulative = 0;
        std::string rendered;
        for (std::size_t b = 0; b < h.bucket_counts.size(); ++b) {
          cumulative += h.bucket_counts[b];
          if (cumulative > rank) {
            if (b < h.upper_bounds.size()) {
              rendered = "<=";
              rendered += util::fmt(h.upper_bounds[b], 4);
            } else if (!h.upper_bounds.empty()) {
              rendered = ">";
              rendered += util::fmt(h.upper_bounds.back(), 4);
            } else {
              rendered = ">0";  // Bound-less snapshot: nothing to anchor on.
            }
            break;
          }
        }
        // A hand-built or torn snapshot can sum its buckets below `count`;
        // emit no column rather than a dangling "p50" label.
        if (!rendered.empty()) out << " p" << percent << rendered;
      }
    }
    out << " buckets[";
    for (std::size_t b = 0; b < h.bucket_counts.size(); ++b) {
      if (b) out << " ";
      if (b < h.upper_bounds.size())
        out << "<=" << util::fmt(h.upper_bounds[b], 4) << ":";
      else
        out << "inf:";
      out << h.bucket_counts[b];
    }
    out << "]\n";
  }

  // Derived rates the tables bury: cache hit rate and mean span times.
  const std::uint64_t hits = snapshot.counter_or("sched.option_cache.hits");
  const std::uint64_t misses = snapshot.counter_or("sched.option_cache.misses");
  if (hits + misses > 0)
    out << "option cache hit rate: "
        << util::fmt_pct(static_cast<double>(hits) /
                         static_cast<double>(hits + misses))
        << "\n";
  for (const auto& [name, total] : snapshot.counters) {
    constexpr std::string_view kPrefix = "span.";
    constexpr std::string_view kSuffix = ".total_us";
    if (name.rfind(kPrefix, 0) != 0 || name.size() <= kSuffix.size() ||
        name.compare(name.size() - kSuffix.size(), kSuffix.size(), kSuffix) !=
            0)
      continue;
    const std::string base =
        name.substr(0, name.size() - kSuffix.size());
    const std::uint64_t calls = snapshot.counter_or(base + ".calls");
    out << base.substr(kPrefix.size()) << ": " << total << " us over " << calls
        << " calls";
    if (calls > 0)
      out << " (" << util::fmt(static_cast<double>(total) /
                                   static_cast<double>(calls),
                               1)
          << " us/call)";
    out << "\n";
  }
  return out.str();
}

std::string resilience_table(const std::vector<ResiliencePoint>& points) {
  util::TextTable table;
  table.set_header({"intensity", "algorithm", "DMR", "pf slots", "backups",
                    "restores", "fallbacks", "lost s", "miss causes"});
  for (const auto& point : points)
    for (const auto& row : point.rows) {
      std::string causes = "-";
      if (row.events)
        causes =
            obs::analysis::attribute_misses(row.events->events()).one_line();
      table.add_row({util::fmt(point.intensity, 2), row.algo,
                     util::fmt_pct(row.dmr),
                     std::to_string(row.sim.total_power_failure_slots()),
                     std::to_string(row.sim.total_backups()),
                     std::to_string(row.sim.total_restores()),
                     std::to_string(row.sim.total_fallbacks()),
                     util::fmt(row.sim.total_lost_progress_s(), 1), causes});
    }
  return table.str();
}

bool write_text_file(const std::string& path, const std::string& content) {
  try {
    util::write_atomic(path, content);
  } catch (const util::IoError&) {
    return false;
  }
  return true;
}

}  // namespace solsched::core
