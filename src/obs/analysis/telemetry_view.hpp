// Reader side of the campaign's telemetry.jsonl event stream (DESIGN.md
// §15). TelemetryBus (src/obs/telemetry.hpp) appends the events;
// `solsched-inspect telemetry` prints their census beside the status
// snapshot (obs/analysis/status_view). Kept in obs/analysis (not obs)
// because it depends on json_mini and is strictly offline tooling.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace solsched::obs::analysis {

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
