// Reader/renderer side of the solsched-serve status file (DESIGN.md §16).
//
// serve::Server rewrites status.json (util::write_atomic) on a fixed cadence;
// this module is the consumer: `solsched-inspect serve` does a one-shot
// render with a staleness verdict. Kept in obs/analysis (not serve) because
// it depends only on json_mini and must stay usable when the daemon is a
// corpse — the whole point is diagnosing a kill -9 from the file it left
// behind.
#pragma once

#include <cstdint>
#include <string>

namespace solsched::obs::analysis {

/// Parsed solsched-serve status.json snapshot.
struct ServeStatus {
  std::string state;  ///< starting | running | stopped.
  std::uint64_t wall_ms = 0;  ///< Snapshot wall-clock (epoch ms).
  std::uint64_t pid = 0;
  std::string socket;
  std::size_t controllers = 0;
  std::size_t workers = 0;
  std::size_t queue_capacity = 0;
  std::size_t queue_depth = 0;
  std::size_t queue_peak = 0;
  std::uint64_t requests = 0;
  std::uint64_t decisions = 0;
  std::uint64_t fallbacks = 0;
  /// Degradation-ladder rung counts (absent keys parse as 0, so pre-rung
  /// status files still load).
  std::uint64_t fallback_no_controller = 0;
  std::uint64_t fallback_corrupt = 0;
  std::uint64_t fallback_budget = 0;
  std::uint64_t fallback_sched = 0;
  std::uint64_t malformed = 0;
  std::uint64_t shed = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t errors = 0;
  std::uint64_t reloads = 0;
  std::uint64_t faults_injected = 0;
  std::uint64_t latency_count = 0;
  std::uint64_t latency_sum_us = 0;
  std::uint64_t p50_us = 0;
  std::uint64_t p99_us = 0;
  /// Lifetime good-verdict fraction; 1.0 for an idle daemon (and for
  /// pre-availability status files, where the key is absent).
  double availability = 1.0;

  /// SLO block (present only when the daemon was started with targets).
  struct Slo {
    double target_availability = 0.0;
    std::uint64_t target_p99_us = 0;
    std::uint64_t fast_window_s = 0;
    std::uint64_t slow_window_s = 0;
    double burn_alert = 0.0;
    double availability_fast = 1.0;
    double availability_slow = 1.0;
    double burn_fast = 0.0;
    double burn_slow = 0.0;
    std::uint64_t p99_fast_us = 0;
    std::uint64_t p99_slow_us = 0;
    bool alert_availability = false;
    bool alert_p99 = false;
    bool alert = false;
  };
  bool has_slo = false;
  Slo slo;
};

/// Parses a serve status.json document. Throws std::runtime_error on
/// malformed JSON or a missing/unknown "status" magic.
ServeStatus parse_serve_status(const std::string& json_text);

/// True when a "running" snapshot is older than `max_age_ms` — the daemon
/// was killed without writing its final "stopped" snapshot (kill -9 leaves
/// the last "running" one behind forever). now_wall_ms = 0 skips the check.
bool serve_status_is_stale(const ServeStatus& status,
                           std::uint64_t now_wall_ms,
                           std::uint64_t max_age_ms);

/// Renders the snapshot as a plain-ASCII block; now_wall_ms (epoch ms,
/// 0 = skip) adds the staleness note.
std::string render_serve_status(const ServeStatus& status,
                                std::uint64_t now_wall_ms = 0,
                                std::uint64_t max_age_ms = 5000);

}  // namespace solsched::obs::analysis
