// Cross-process request-timeline assembly (DESIGN.md §17).
//
// A traced serve request leaves spans in two Chrome trace dumps: the
// client's ("serve.client.request" plus the flow start) and the daemon's
// (the "serve.req.*" stage breakdown plus the flow finish). Both sides
// stamp wall-clock microseconds (obs::wall_us), so the dumps already share
// one time axis; what they lack is a shared process id — every sink writes
// pid 1. This module loads N dumps, assigns each file a distinct pid (its
// 1-based position), merges the events into one ts-sorted list, and can
//  * write the merged list back out as a single Chrome trace JSON that
//    chrome://tracing / Perfetto renders as client and server tracks with
//    the flow arrow between them, and
//  * fold the spans of each trace id into a per-request breakdown that
//    answers, in plain text, "where did that request's time go?" — the
//    question the dashboards' p99 number cannot.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace solsched::obs::analysis {

/// One merged trace event. `trace_id` comes from "args":{"trace":...} on
/// complete spans and from "id" on flow endpoints; 0 = untagged.
struct TimelineEvent {
  std::string name;
  char ph = 'X';  ///< 'X' complete span, 's'/'f' flow endpoints.
  std::uint64_t ts_us = 0;
  std::uint64_t dur_us = 0;
  std::size_t pid = 0;  ///< 1-based index of the source file.
  std::size_t tid = 0;
  std::uint64_t trace_id = 0;
  std::string source;  ///< Path of the dump the event came from.
};

struct Timeline {
  std::vector<TimelineEvent> events;  ///< ts-sorted, ties by pid.
};

/// Loads and merges Chrome trace dumps; file i's events get pid i+1.
/// Throws std::runtime_error on unreadable files or malformed JSON.
Timeline load_timeline(const std::vector<std::string>& paths);

/// Per-request roll-up of one trace id's complete spans.
struct RequestBreakdown {
  std::uint64_t trace_id = 0;
  std::uint64_t first_ts_us = 0;       ///< Earliest span start.
  std::uint64_t client_latency_us = 0; ///< "serve.client.request" dur; 0 if absent.
  std::uint64_t server_total_us = 0;   ///< "serve.req" dur; 0 if absent.
  std::uint64_t stage_sum_us = 0;      ///< Sum of "serve.req.<stage>" durs.
  std::vector<TimelineEvent> spans;    ///< ts-sorted 'X' events of this id.
};

/// One breakdown per trace id seen (ordered by first appearance in time).
std::vector<RequestBreakdown> request_breakdowns(const Timeline& timeline);

/// Plain-text render. trace_id 0 renders every traced request; a nonzero
/// id renders just that request (empty string when the id is absent).
std::string render_timeline(const Timeline& timeline,
                            std::uint64_t trace_id = 0);

/// Writes the merged events as one Chrome trace JSON (distinct pids kept,
/// flow events preserved) through util::write_atomic. False on I/O
/// failure, with an existing file at `path` left as it was.
bool write_merged_trace(const Timeline& timeline, const std::string& path);

}  // namespace solsched::obs::analysis
