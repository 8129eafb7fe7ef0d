// Reader/renderer side of the live-telemetry layer (DESIGN.md §15).
//
// TelemetryBus (src/obs/telemetry.hpp) writes status.json snapshots and a
// telemetry.jsonl event stream into the campaign directory; this module is
// the consumer: `solsched-campaign watch` polls parse_status/render_status
// into a terminal dashboard, `solsched-inspect telemetry` does a one-shot
// render plus an event census. Kept in obs/analysis (not obs) because it
// depends on json_mini and is strictly offline tooling.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace solsched::obs::analysis {

/// Parsed status.json snapshot.
struct CampaignStatus {
  std::string spec_digest;
  std::string state;  ///< running | stopped | finished | failed.
  std::uint64_t wall_ms = 0;     ///< Snapshot wall-clock (epoch ms).
  std::uint64_t elapsed_ms = 0;  ///< Run time of the publishing process.
  std::size_t threads = 0;
  std::uint64_t heartbeat_ms = 0;
  std::uint64_t stall_ms = 0;
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

/// Parses a status.json document. Throws std::runtime_error on malformed
/// JSON or a missing/unknown "status" magic.
CampaignStatus parse_status(const std::string& json_text);

/// Renders the snapshot as a terminal dashboard. plain=true emits pure
/// ASCII (no ANSI escapes) for CI logs; now_wall_ms (epoch ms, 0 = skip)
/// adds a staleness note when the snapshot is old.
std::string render_status(const CampaignStatus& status, bool plain,
                          std::uint64_t now_wall_ms = 0);

/// Exit code a watcher should return for a final snapshot:
/// finished -> 0, failed -> 1, stopped -> 3 ("resume me"), running -> 3
/// (the writer is gone or we gave up waiting: the campaign is incomplete).
int status_exit_code(const CampaignStatus& status);

/// True when a "running" snapshot is older than max(stall window, five
/// heartbeats) — the writing process is presumed dead (kill -9 leaves the
/// last "running" snapshot behind forever).
bool status_is_stale(const CampaignStatus& status, std::uint64_t now_wall_ms);

/// One line of telemetry.jsonl (the reader-side mirror of
/// obs::TelemetryEvent).
struct TelemetryLine {
  std::uint64_t seq = 0;
  std::uint64_t wall_ms = 0;
  std::string type;
  bool has_shard = false;
  std::uint64_t shard = 0;
  std::string workload;
  std::string detail;
};

/// Parsed telemetry.jsonl stream.
struct TelemetryLog {
  std::string spec_digest;  ///< From the header line.
  std::vector<TelemetryLine> lines;
  std::size_t dropped_partial = 0;  ///< Crash-torn tail lines forgiven.
  /// type -> count census over `lines`.
  std::map<std::string, std::size_t> census() const;
};

/// Parses the full telemetry.jsonl text with util::replay_lines: a parse
/// failure is forgiven only on the final line (crash-torn tail); malformed
/// mid-file lines throw std::runtime_error.
TelemetryLog load_telemetry(const std::string& text);

}  // namespace solsched::obs::analysis
