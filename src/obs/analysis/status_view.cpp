#include "obs/analysis/status_view.hpp"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <stdexcept>

#include "obs/json.hpp"

namespace solsched::obs::analysis {
namespace {

constexpr const char* kCampaignMagic = "solsched-campaign-status-v1";
constexpr const char* kServeMagic = "solsched-serve-v1";

/// Member `key` as a count; 0 when absent or not an unsigned integer (a
/// sign, a fraction, an exponent, 2^64 or more).
std::size_t size_of(const JsonValue& doc, const char* key) {
  return static_cast<std::size_t>(doc.u64_or(key));
}

unsigned long long ull(std::uint64_t v) {
  return static_cast<unsigned long long>(v);
}

std::string fmt_duration(double seconds) {
  char buf[48];
  // Clamped before the conversion: a negative, NaN or huge ETA from the
  // file must not reach an out-of-range double-to-integer cast.
  seconds = seconds > 0 ? std::min(seconds, 1e12) : 0.0;
  const auto s = static_cast<std::uint64_t>(seconds + 0.5);
  if (s >= 3600)
    std::snprintf(buf, sizeof(buf), "%lluh%02llum", ull(s / 3600),
                  ull((s % 3600) / 60));
  else if (s >= 60)
    std::snprintf(buf, sizeof(buf), "%llum%02llus", ull(s / 60), ull(s % 60));
  else
    std::snprintf(buf, sizeof(buf), "%llus", ull(s));
  return buf;
}

std::string progress_bar(std::size_t done, std::size_t total, bool plain,
                         std::size_t width = 32) {
  const double frac =
      total > 0 ? static_cast<double>(done) / static_cast<double>(total) : 0.0;
  const auto filled =
      static_cast<std::size_t>(frac * static_cast<double>(width) + 0.5);
  std::string bar = "[";
  for (std::size_t i = 0; i < width; ++i)
    bar += i < filled ? (plain ? '#' : '|') : (plain ? '.' : ' ');
  bar += "]";
  return bar;
}

void parse_header(const JsonValue& doc, StatusHeader& out) {
  out.state = doc.string_or("state");
  out.wall_ms = doc.u64_or("wall_ms");
  out.heartbeat_ms = doc.u64_or("heartbeat_ms");
  out.stall_ms = doc.u64_or("stall_ms");
}

CampaignStatus parse_campaign(const JsonValue& doc) {
  CampaignStatus out;
  parse_header(doc, out);
  out.spec_digest = doc.string_or("spec_digest");
  out.elapsed_ms = doc.u64_or("elapsed_ms");
  out.threads = size_of(doc, "threads");
  out.heartbeats = doc.u64_or("heartbeats");
  if (const JsonValue* shards = doc.find("shards"); shards != nullptr) {
    out.total = size_of(*shards, "total");
    out.done = size_of(*shards, "done");
    out.resumed = size_of(*shards, "resumed");
    out.executed = size_of(*shards, "executed");
    out.in_flight = size_of(*shards, "in_flight");
    out.failed = size_of(*shards, "failed");
    out.stalled = size_of(*shards, "stalled");
  }
  if (const JsonValue* cache = doc.find("cache"); cache != nullptr) {
    out.artifact_hits = size_of(*cache, "artifact_hits");
    out.hit_rate = cache->number_or("hit_rate");
    out.trainings = size_of(*cache, "trainings");
  }
  out.throughput_shards_per_min = doc.number_or("throughput_shards_per_min");
  out.eta_s = doc.number_or("eta_s");
  if (const JsonValue* ws = doc.find("workloads");
      ws != nullptr && ws->is_array()) {
    for (const JsonValue& w : ws->array) {
      CampaignStatus::Workload entry;
      entry.workload = w.string_or("workload");
      entry.total = size_of(w, "total");
      entry.done = size_of(w, "done");
      entry.mean_shard_ms = w.number_or("mean_shard_ms");
      entry.eta_s = w.number_or("eta_s");
      out.workloads.push_back(std::move(entry));
    }
  }
  return out;
}

ServeStatus parse_serve(const JsonValue& doc) {
  ServeStatus out;
  parse_header(doc, out);
  out.pid = doc.u64_or("pid");
  out.socket = doc.string_or("socket");
  out.controllers = size_of(doc, "controllers");
  out.workers = size_of(doc, "workers");
  out.queue_capacity = size_of(doc, "queue_capacity");
  out.queue_depth = size_of(doc, "queue_depth");
  out.queue_peak = size_of(doc, "queue_peak");
  out.requests = doc.u64_or("requests");
  out.decisions = doc.u64_or("decisions");
  out.fallbacks = doc.u64_or("fallbacks");
  out.fallback_no_controller = doc.u64_or("fallback_no_controller");
  out.fallback_corrupt = doc.u64_or("fallback_corrupt");
  out.fallback_budget = doc.u64_or("fallback_budget");
  out.fallback_sched = doc.u64_or("fallback_sched");
  out.malformed = doc.u64_or("malformed");
  out.shed = doc.u64_or("shed");
  out.timeouts = doc.u64_or("timeouts");
  out.errors = doc.u64_or("errors");
  out.reloads = doc.u64_or("reloads");
  out.faults_injected = doc.u64_or("faults_injected");
  out.latency_count = doc.u64_or("latency_count");
  out.latency_sum_us = doc.u64_or("latency_sum_us");
  out.p50_us = doc.u64_or("p50_us");
  out.p99_us = doc.u64_or("p99_us");
  out.availability = doc.number_or("availability", 1.0);
  if (const JsonValue* slo = doc.find("slo"); slo && slo->is_object()) {
    out.has_slo = true;
    out.slo.target_availability = slo->number_or("target_availability");
    out.slo.target_p99_us = slo->u64_or("target_p99_us");
    out.slo.fast_window_s = slo->u64_or("fast_window_s");
    out.slo.slow_window_s = slo->u64_or("slow_window_s");
    out.slo.burn_alert = slo->number_or("burn_alert");
    out.slo.availability_fast = slo->number_or("availability_fast", 1.0);
    out.slo.availability_slow = slo->number_or("availability_slow", 1.0);
    out.slo.burn_fast = slo->number_or("burn_fast");
    out.slo.burn_slow = slo->number_or("burn_slow");
    out.slo.p99_fast_us = slo->u64_or("p99_fast_us");
    out.slo.p99_slow_us = slo->u64_or("p99_slow_us");
    const auto bool_of = [&](const char* key) {
      const JsonValue* v = slo->find(key);
      return v != nullptr && v->kind == JsonValue::Kind::kBool && v->boolean;
    };
    out.slo.alert_availability = bool_of("alert_availability");
    out.slo.alert_p99 = bool_of("alert_p99");
    out.slo.alert = bool_of("alert");
  }
  return out;
}

/// Appends printf-formatted text (at most one 255-byte line) to `out`.
__attribute__((format(printf, 2, 3))) void appendf(std::string& out,
                                                   const char* fmt, ...) {
  char line[256];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(line, sizeof(line), fmt, args);
  va_end(args);
  out += line;
}

std::string render_campaign(const CampaignStatus& status, bool plain,
                            bool stale) {
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

  std::string out = bold;
  out += "campaign " + status.spec_digest + reset + "  state " + state_color +
         status.state + reset;
  if (stale)
    out += plain ? "  (stale: writer gone?)"
                 : "  \033[31m(stale: writer gone?)\033[0m";
  out += "\n";

  const double pct =
      status.total > 0
          ? 100.0 * static_cast<double>(status.done) /
                static_cast<double>(status.total)
          : 0.0;
  appendf(out, "  shards %s %zu/%zu (%.1f%%)\n",
          progress_bar(status.done, status.total, plain).c_str(), status.done,
          status.total, pct);
  appendf(out,
          "  resumed %zu  executed %zu  in-flight %zu  failed %zu  "
          "stalled %zu\n",
          status.resumed, status.executed, status.in_flight, status.failed,
          status.stalled);
  appendf(out,
          "  throughput %.2f shards/min  eta %s  elapsed %s  threads %zu\n",
          status.throughput_shards_per_min, fmt_duration(status.eta_s).c_str(),
          fmt_duration(static_cast<double>(status.elapsed_ms) / 1000.0).c_str(),
          status.threads);
  appendf(out,
          "  cache hit-rate %.0f%% (%zu hits)  trainings %zu  "
          "heartbeats %llu\n",
          100.0 * status.hit_rate, status.artifact_hits, status.trainings,
          ull(status.heartbeats));
  for (const CampaignStatus::Workload& w : status.workloads)
    appendf(out, "  %s%-12s%s %s %zu/%zu  mean %.0f ms  eta %s\n", dim,
            w.workload.c_str(), reset,
            progress_bar(w.done, w.total, plain, 20).c_str(), w.done, w.total,
            w.mean_shard_ms, fmt_duration(w.eta_s).c_str());
  return out;
}

std::string render_serve(const ServeStatus& status, std::uint64_t now_wall_ms,
                         bool stale) {
  std::string out = "solsched-serve  state " + status.state;
  // Snapshot age tells the reader how fresh everything below is; a stale
  // "running" snapshot names the age the daemon has been silent for.
  if (now_wall_ms > status.wall_ms)
    appendf(out, "  (age %.1f s)",
            static_cast<double>(now_wall_ms - status.wall_ms) / 1000.0);
  if (stale) out += "  (stale: daemon gone?)";
  out += "\n";
  appendf(out, "  pid %llu  socket %s\n", ull(status.pid),
          status.socket.c_str());
  appendf(out, "  controllers %zu  workers %zu  queue %zu/%zu (peak %zu)\n",
          status.controllers, status.workers, status.queue_depth,
          status.queue_capacity, status.queue_peak);
  appendf(out,
          "  requests %llu  decisions %llu  fallbacks %llu  reloads %llu\n",
          ull(status.requests), ull(status.decisions), ull(status.fallbacks),
          ull(status.reloads));
  appendf(out,
          "  rungs: no_controller %llu  corrupt %llu  budget %llu  "
          "sched_fallback %llu\n",
          ull(status.fallback_no_controller), ull(status.fallback_corrupt),
          ull(status.fallback_budget), ull(status.fallback_sched));
  appendf(out,
          "  malformed %llu  shed %llu  timeouts %llu  errors %llu  "
          "faults %llu\n",
          ull(status.malformed), ull(status.shed), ull(status.timeouts),
          ull(status.errors), ull(status.faults_injected));
  const double mean_us =
      status.latency_count > 0
          ? static_cast<double>(status.latency_sum_us) /
                static_cast<double>(status.latency_count)
          : 0.0;
  appendf(out,
          "  latency mean %.1f us  p50 %llu us  p99 %llu us  (%llu samples)\n",
          mean_us, ull(status.p50_us), ull(status.p99_us),
          ull(status.latency_count));
  appendf(out, "  availability %.4f\n", status.availability);
  if (!status.has_slo) return out;
  const ServeStatus::Slo& slo = status.slo;
  appendf(out,
          "  slo: target availability %.4f  target p99 %llu us  "
          "windows %llu/%llu s  burn alert >= %.1f\n",
          slo.target_availability, ull(slo.target_p99_us),
          ull(slo.fast_window_s), ull(slo.slow_window_s), slo.burn_alert);
  appendf(out,
          "  slo: availability %.4f/%.4f  burn %.2f/%.2f  "
          "p99 %llu/%llu us (fast/slow)\n",
          slo.availability_fast, slo.availability_slow, slo.burn_fast,
          slo.burn_slow, ull(slo.p99_fast_us), ull(slo.p99_slow_us));
  if (!slo.alert) return out + "  slo: ok\n";
  out += "  slo: ALERT";
  if (slo.alert_availability) out += " availability-burn";
  if (slo.alert_p99) out += " p99-latency";
  return out + "\n";
}

}  // namespace

Status parse_status(const std::string& json_text) {
  const JsonValue doc = parse_json(json_text);
  const std::string magic = doc.string_or("status");
  if (magic == kCampaignMagic) return parse_campaign(doc);
  if (magic == kServeMagic) return parse_serve(doc);
  throw std::runtime_error(
      "status.json: missing or unknown \"status\" magic (expected \"" +
      std::string(kCampaignMagic) + "\" or \"" + kServeMagic + "\")");
}

const StatusHeader& status_header(const Status& status) {
  return std::visit(
      [](const StatusHeader& s) -> const StatusHeader& { return s; }, status);
}

bool status_is_stale(const Status& status, std::uint64_t now_wall_ms) {
  const StatusHeader& h = status_header(status);
  if (h.state != "running" || now_wall_ms == 0) return false;
  // Five missed heartbeats (or the stall window, whichever is longer) with
  // no snapshot rewrite means the writer is gone, not just busy: both
  // writers rewrite status.json on every heartbeat tick.
  const std::uint64_t window =
      std::max<std::uint64_t>(h.stall_ms, 5 * h.heartbeat_ms);
  return now_wall_ms > h.wall_ms && now_wall_ms - h.wall_ms > window;
}

int status_exit_code(const Status& status) {
  if (const auto* serve = std::get_if<ServeStatus>(&status))
    return serve->state == "stopped" ? 0 : 3;
  const std::string& state = std::get<CampaignStatus>(status).state;
  if (state == "finished") return 0;
  if (state == "failed") return 1;
  return 3;  // stopped, or running-with-no-writer: resume me.
}

std::string render_status(const Status& status, bool plain,
                          std::uint64_t now_wall_ms) {
  const bool stale = status_is_stale(status, now_wall_ms);
  if (const auto* serve = std::get_if<ServeStatus>(&status))
    return render_serve(*serve, now_wall_ms, stale);
  return render_campaign(std::get<CampaignStatus>(status), plain, stale);
}

}  // namespace solsched::obs::analysis
