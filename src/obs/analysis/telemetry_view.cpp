#include "obs/analysis/telemetry_view.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <stdexcept>

#include "obs/analysis/json_mini.hpp"
#include "util/durable.hpp"

namespace solsched::obs::analysis {
namespace {

constexpr const char* kStatusMagic = "solsched-campaign-status-v1";
constexpr const char* kTelemetryMagic = "solsched-campaign-telemetry-v1";

std::string fmt_duration(double seconds) {
  char buf[48];
  if (seconds < 0) seconds = 0;
  const auto s = static_cast<std::uint64_t>(seconds + 0.5);
  if (s >= 3600)
    std::snprintf(buf, sizeof(buf), "%lluh%02llum",
                  static_cast<unsigned long long>(s / 3600),
                  static_cast<unsigned long long>((s % 3600) / 60));
  else if (s >= 60)
    std::snprintf(buf, sizeof(buf), "%llum%02llus",
                  static_cast<unsigned long long>(s / 60),
                  static_cast<unsigned long long>(s % 60));
  else
    std::snprintf(buf, sizeof(buf), "%llus",
                  static_cast<unsigned long long>(s));
  return buf;
}

std::string progress_bar(std::size_t done, std::size_t total, bool plain,
                         std::size_t width = 32) {
  const double frac =
      total > 0 ? static_cast<double>(done) / static_cast<double>(total) : 0.0;
  const auto filled = static_cast<std::size_t>(frac * static_cast<double>(width) + 0.5);
  std::string bar = "[";
  for (std::size_t i = 0; i < width; ++i)
    bar += i < filled ? (plain ? '#' : '|') : (plain ? '.' : ' ');
  bar += "]";
  return bar;
}

}  // namespace

CampaignStatus parse_status(const std::string& json_text) {
  const JsonValue doc = parse_json(json_text);
  if (doc.string_or("status") != kStatusMagic)
    throw std::runtime_error(
        "status.json: missing or unknown \"status\" magic (expected \"" +
        std::string(kStatusMagic) + "\")");
  CampaignStatus out;
  out.spec_digest = doc.string_or("spec_digest");
  out.state = doc.string_or("state");
  out.wall_ms = static_cast<std::uint64_t>(doc.number_or("wall_ms"));
  out.elapsed_ms = static_cast<std::uint64_t>(doc.number_or("elapsed_ms"));
  out.threads = static_cast<std::size_t>(doc.number_or("threads"));
  out.heartbeat_ms = static_cast<std::uint64_t>(doc.number_or("heartbeat_ms"));
  out.stall_ms = static_cast<std::uint64_t>(doc.number_or("stall_ms"));
  out.heartbeats = static_cast<std::uint64_t>(doc.number_or("heartbeats"));
  if (const JsonValue* shards = doc.find("shards"); shards != nullptr) {
    out.total = static_cast<std::size_t>(shards->number_or("total"));
    out.done = static_cast<std::size_t>(shards->number_or("done"));
    out.resumed = static_cast<std::size_t>(shards->number_or("resumed"));
    out.executed = static_cast<std::size_t>(shards->number_or("executed"));
    out.in_flight = static_cast<std::size_t>(shards->number_or("in_flight"));
    out.failed = static_cast<std::size_t>(shards->number_or("failed"));
    out.stalled = static_cast<std::size_t>(shards->number_or("stalled"));
  }
  if (const JsonValue* cache = doc.find("cache"); cache != nullptr) {
    out.artifact_hits =
        static_cast<std::size_t>(cache->number_or("artifact_hits"));
    out.hit_rate = cache->number_or("hit_rate");
    out.trainings = static_cast<std::size_t>(cache->number_or("trainings"));
  }
  out.throughput_shards_per_min = doc.number_or("throughput_shards_per_min");
  out.eta_s = doc.number_or("eta_s");
  if (const JsonValue* ws = doc.find("workloads");
      ws != nullptr && ws->is_array()) {
    for (const JsonValue& w : ws->array) {
      CampaignStatus::Workload entry;
      entry.workload = w.string_or("workload");
      entry.total = static_cast<std::size_t>(w.number_or("total"));
      entry.done = static_cast<std::size_t>(w.number_or("done"));
      entry.mean_shard_ms = w.number_or("mean_shard_ms");
      entry.eta_s = w.number_or("eta_s");
      out.workloads.push_back(std::move(entry));
    }
  }
  return out;
}

bool status_is_stale(const CampaignStatus& status,
                     std::uint64_t now_wall_ms) {
  if (status.state != "running" || now_wall_ms == 0) return false;
  // Five missed heartbeats (or the stall window, whichever is longer) with
  // no snapshot rewrite means the writer is gone, not just busy — the
  // watchdog rewrites status.json on every heartbeat tick.
  const std::uint64_t window =
      std::max<std::uint64_t>(status.stall_ms, 5 * status.heartbeat_ms);
  return now_wall_ms > status.wall_ms && now_wall_ms - status.wall_ms > window;
}

int status_exit_code(const CampaignStatus& status) {
  if (status.state == "finished") return 0;
  if (status.state == "failed") return 1;
  return 3;  // stopped, or running-with-no-writer: resume me.
}

std::string render_status(const CampaignStatus& status, bool plain,
                          std::uint64_t now_wall_ms) {
  const char* bold = plain ? "" : "\033[1m";
  const char* dim = plain ? "" : "\033[2m";
  const char* reset = plain ? "" : "\033[0m";
  const char* state_color = "";
  if (!plain) {
    if (status.state == "finished")
      state_color = "\033[32m";  // green
    else if (status.state == "failed")
      state_color = "\033[31m";  // red
    else if (status.state == "stopped")
      state_color = "\033[33m";  // yellow
    else
      state_color = "\033[36m";  // cyan: running
  }

  std::ostringstream out;
  char line[256];
  out << bold << "campaign " << status.spec_digest << reset << "  state "
      << state_color << status.state << reset;
  if (status_is_stale(status, now_wall_ms))
    out << "  " << (plain ? "(stale: writer gone?)"
                          : "\033[31m(stale: writer gone?)\033[0m");
  out << "\n";

  const double pct =
      status.total > 0
          ? 100.0 * static_cast<double>(status.done) /
                static_cast<double>(status.total)
          : 0.0;
  std::snprintf(line, sizeof(line), "  shards %s %zu/%zu (%.1f%%)\n",
                progress_bar(status.done, status.total, plain).c_str(),
                status.done, status.total, pct);
  out << line;
  std::snprintf(line, sizeof(line),
                "  resumed %zu  executed %zu  in-flight %zu  failed %zu  "
                "stalled %zu\n",
                status.resumed, status.executed, status.in_flight,
                status.failed, status.stalled);
  out << line;
  std::snprintf(line, sizeof(line),
                "  throughput %.2f shards/min  eta %s  elapsed %s  "
                "threads %zu\n",
                status.throughput_shards_per_min,
                fmt_duration(status.eta_s).c_str(),
                fmt_duration(static_cast<double>(status.elapsed_ms) / 1000.0)
                    .c_str(),
                status.threads);
  out << line;
  std::snprintf(line, sizeof(line),
                "  cache hit-rate %.0f%% (%zu hits)  trainings %zu  "
                "heartbeats %llu\n",
                100.0 * status.hit_rate, status.artifact_hits,
                status.trainings,
                static_cast<unsigned long long>(status.heartbeats));
  out << line;
  for (const CampaignStatus::Workload& w : status.workloads) {
    std::snprintf(line, sizeof(line),
                  "  %s%-12s%s %s %zu/%zu  mean %.0f ms  eta %s\n", dim,
                  w.workload.c_str(), reset,
                  progress_bar(w.done, w.total, plain, 20).c_str(), w.done,
                  w.total, w.mean_shard_ms, fmt_duration(w.eta_s).c_str());
    out << line;
  }
  return out.str();
}

std::map<std::string, std::size_t> TelemetryLog::census() const {
  std::map<std::string, std::size_t> out;
  for (const TelemetryLine& line : lines) ++out[line.type];
  return out;
}

TelemetryLog load_telemetry(const std::string& text) {
  TelemetryLog out;
  bool header_seen = false;
  const auto parse = [&](std::string_view line, std::size_t line_no) {
    JsonValue doc;
    try {
      doc = parse_json(std::string(line));
    } catch (const std::exception&) {
      return false;
    }
    if (!doc.is_object())
      throw std::runtime_error("telemetry.jsonl: line " +
                               std::to_string(line_no) + " is not an object");
    if (!header_seen) {
      if (doc.string_or("telemetry") != kTelemetryMagic)
        throw std::runtime_error(
            "telemetry.jsonl: missing or unknown header (expected \"" +
            std::string(kTelemetryMagic) + "\")");
      out.spec_digest = doc.string_or("spec_digest");
      header_seen = true;
      return true;
    }
    TelemetryLine entry;
    entry.seq = static_cast<std::uint64_t>(doc.number_or("seq"));
    entry.wall_ms = static_cast<std::uint64_t>(doc.number_or("ts_ms"));
    entry.type = doc.string_or("type");
    if (const JsonValue* shard = doc.find("shard");
        shard != nullptr && shard->is_number()) {
      entry.has_shard = true;
      entry.shard = static_cast<std::uint64_t>(shard->number);
    }
    entry.workload = doc.string_or("workload");
    entry.detail = doc.string_or("detail");
    out.lines.push_back(std::move(entry));
    return true;
  };
  // Same forgiveness contract as the Journal: appends are sequential, so
  // only the *last* line can be torn by a crash.
  out.dropped_partial = util::replay_lines(text, "telemetry.jsonl", parse);
  return out;
}

}  // namespace solsched::obs::analysis
