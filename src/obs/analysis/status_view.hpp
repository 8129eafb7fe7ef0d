// Reader/renderer of the two status.json kinds (DESIGN.md §15, §16).
//
// The campaign runner (obs::TelemetryBus) and the serve daemon
// (serve::Server) each rewrite a status.json on a fixed cadence and once
// more when they reach a terminal state. This module is the one consumer:
// `solsched-inspect watch` polls parse_status/render_status into a terminal
// dashboard, `telemetry` and `slo` render one snapshot. It needs nothing of
// the writers but the JSON reader (obs/json), so it stays usable when the
// writer is a corpse: the point is diagnosing a kill -9 from the file it
// left.
#pragma once

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

namespace solsched::obs::analysis {

/// The fields both kinds carry: all the staleness rule reads.
struct StatusHeader {
  std::string state;  ///< "running", or the writer's terminal state.
  std::uint64_t wall_ms = 0;       ///< Snapshot wall clock (epoch ms).
  std::uint64_t heartbeat_ms = 0;  ///< Writer's rewrite cadence (0 = none).
  std::uint64_t stall_ms = 0;      ///< Campaign stall window; 0 for serve.
};

/// Parsed campaign status.json (magic "solsched-campaign-status-v1");
/// states running | stopped | finished | failed.
struct CampaignStatus : StatusHeader {
  std::string spec_digest;
  std::uint64_t elapsed_ms = 0;  ///< Run time of the publishing process.
  std::size_t threads = 0;
  std::uint64_t heartbeats = 0;

  std::size_t total = 0;
  std::size_t done = 0;
  std::size_t resumed = 0;
  std::size_t executed = 0;
  std::size_t in_flight = 0;
  std::size_t failed = 0;
  std::size_t stalled = 0;

  std::size_t artifact_hits = 0;
  double hit_rate = 0.0;
  std::size_t trainings = 0;
  double throughput_shards_per_min = 0.0;
  double eta_s = 0.0;

  struct Workload {
    std::string workload;
    std::size_t total = 0;
    std::size_t done = 0;
    double mean_shard_ms = 0.0;
    double eta_s = 0.0;
  };
  std::vector<Workload> workloads;
};

/// Parsed solsched-serve status.json (magic "solsched-serve-v1"); states
/// running | stopped.
struct ServeStatus : StatusHeader {
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

using Status = std::variant<CampaignStatus, ServeStatus>;

/// The fields common to both kinds.
const StatusHeader& status_header(const Status& status);

/// Parses either status.json kind, chosen by its "status" magic. Throws
/// std::runtime_error on malformed JSON or a missing/unknown magic.
Status parse_status(const std::string& json_text);

/// True when a "running" snapshot is older than max(stall_ms,
/// 5 * heartbeat_ms): the writer rewrites the file every heartbeat, so
/// that much silence means it is gone (kill -9 leaves its last "running"
/// snapshot behind forever). now_wall_ms = 0 skips the check.
bool status_is_stale(const Status& status, std::uint64_t now_wall_ms);

/// Renders the snapshot as a terminal dashboard. plain=true emits pure
/// ASCII (no ANSI escapes) for CI logs; the serve render is always plain.
/// now_wall_ms (epoch ms, 0 = skip) adds the staleness note, and for
/// serve the snapshot's age.
std::string render_status(const Status& status, bool plain,
                          std::uint64_t now_wall_ms = 0);

/// Exit code a watcher returns for a final snapshot. Campaign: finished
/// -> 0, failed -> 1, anything else (stopped: "resume me"; running: the
/// writer is gone or the watcher gave up) -> 3. Serve: stopped -> 0,
/// anything else -> 3.
int status_exit_code(const Status& status);

}  // namespace solsched::obs::analysis
