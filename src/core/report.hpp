// Report generation: text summaries and CSV exports of simulation results.
#pragma once

#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "nvp/sim_result.hpp"
#include "obs/metrics.hpp"

namespace solsched::core {

/// Multi-line text summary of one simulation (totals + per-day DMR).
std::string summarize(const nvp::SimResult& result, const std::string& title,
                      std::size_t n_days);

/// Per-period CSV of a simulation: day, period, dmr, energy flows.
/// Suitable for plotting Fig. 9-style series offline.
std::string to_csv(const nvp::SimResult& result);

/// Text table of a resilience sweep: one line per (intensity, policy) with
/// DMR and the fault ledger (power failures, backups/restores, fallbacks,
/// volatile-baseline lost progress). Rows that carry an event trace
/// (ResilienceConfig::record_events) gain a per-cause miss attribution
/// column (DESIGN.md §12); traceless rows show "-".
std::string resilience_table(const std::vector<ResiliencePoint>& points);

/// Text rendering of a metrics snapshot: counters/gauges tables plus derived
/// rates (cache hit rate, mean span times). Empty string for an empty
/// snapshot with observability on, so callers can append it unconditionally;
/// a one-line "observability disabled" notice when SOLSCHED_OBS is off, so
/// a run that asked for metrics never reports silence.
std::string metrics_report(const obs::MetricsSnapshot& snapshot);

/// util::write_atomic(path, content); returns false on I/O failure.
bool write_text_file(const std::string& path, const std::string& content);

}  // namespace solsched::core
