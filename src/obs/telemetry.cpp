#include "obs/telemetry.hpp"

#include <chrono>
#include <cstdio>

#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "util/durable.hpp"

namespace solsched::obs {
namespace {

constexpr const char* kMagic = "solsched-campaign-telemetry-v1";
constexpr const char* kStatusMagic = "solsched-campaign-status-v1";

std::string render_double(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", value);
  return buf;
}

}  // namespace

std::string TelemetryEvent::to_json() const {
  std::string out = "{\"seq\": " + std::to_string(seq);
  out += ", \"ts_ms\": " + std::to_string(wall_ms);
  out += ", \"type\": \"" + json_escape(type) + "\"";
  if (shard != kTelemetryNoShard)
    out += ", \"shard\": " + std::to_string(shard);
  if (!workload.empty())
    out += ", \"workload\": \"" + json_escape(workload) + "\"";
  if (!detail.empty()) out += ", \"detail\": \"" + json_escape(detail) + "\"";
  out += "}";
  return out;
}

std::map<std::string, std::size_t> TelemetryLog::census() const {
  std::map<std::string, std::size_t> out;
  for (const TelemetryEvent& event : events) ++out[event.type];
  return out;
}

TelemetryLog load_telemetry(const std::string& text) {
  TelemetryLog out;
  const JsonlReplay replay = replay_jsonl(
      text, "telemetry.jsonl", "telemetry", kMagic, /*expected_digest=*/"",
      [&](const JsonRecord& rec) {
        TelemetryEvent event;
        event.seq = rec.u64("seq");
        event.wall_ms = rec.u64("ts_ms");
        event.type = rec.string("type");
        if (rec.value.find("shard") != nullptr) event.shard = rec.u64("shard");
        event.workload = rec.value.string_or("workload");
        event.detail = rec.value.string_or("detail");
        out.events.push_back(std::move(event));
      });
  out.spec_digest = replay.spec_digest;
  out.dropped_partial = replay.dropped_partial;
  return out;
}

TelemetryBus::TelemetryBus(Options options)
    : options_(std::move(options)),
      // Opening heals a crash-torn tail exactly like the Journal: a kill
      // mid-write leaves a partial final line, and appending onto it would
      // glue the next event into mid-file garbage.
      log_(options_.dir + "/telemetry.jsonl",
           jsonl_header("telemetry", kMagic, options_.spec_digest)) {
  start_us_ = now_us();
  start_wall_ms_ = wall_ms();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    write_status_locked();
  }
  if (options_.heartbeat_ms > 0)
    watchdog_ = std::thread([this] { watchdog_main(); });
}

TelemetryBus::~TelemetryBus() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  if (watchdog_.joinable()) watchdog_.join();
  std::lock_guard<std::mutex> lock(mutex_);
  // This may run while an exception unwinds, so an I/O failure here is
  // reported, not thrown.
  try {
    if (!finish_seen_) {
      // Destroyed while unwinding an exception: the run did not reach its
      // finish line. Record that so watchers can exit non-zero.
      state_ = "failed";
      publish_locked("campaign.failed", kTelemetryNoShard, "", "",
                     /*sync=*/true);
    }
    write_status_locked();
  } catch (const util::IoError& e) {
    std::fprintf(stderr, "solsched-campaign: warning: telemetry: %s\n",
                 e.what());
  }
}

void TelemetryBus::publish_locked(std::string type, std::uint64_t shard,
                                  std::string workload, std::string detail,
                                  bool sync) {
  TelemetryEvent ev;
  ev.seq = seq_++;
  ev.wall_ms = wall_ms();
  ev.type = std::move(type);
  ev.shard = shard;
  ev.workload = std::move(workload);
  ev.detail = std::move(detail);
  // fsync batches: syncing here flushes every pending per-shard event too,
  // so durability lags by at most one heartbeat interval while the shard
  // hot path pays only a buffered write().
  log_.append(ev.to_json() + "\n", sync);
  OBS_COUNTER_ADD("campaign.telemetry.events", 1);
}

void TelemetryBus::touch_locked(std::uint64_t shard) {
  auto it = in_flight_.find(shard);
  if (it != in_flight_.end()) it->second.last_us = now_us();
}

void TelemetryBus::campaign_start(
    std::size_t total_shards,
    const std::map<std::string, std::size_t>& workload_total,
    const std::map<std::string, std::size_t>& workload_done) {
  std::lock_guard<std::mutex> lock(mutex_);
  total_ = total_shards;
  workload_order_.clear();
  workloads_.clear();
  resumed_ = 0;
  for (const auto& [name, total] : workload_total) {
    workload_order_.push_back(name);
    WorkloadProgress& p = workloads_[name];
    p.total = total;
    if (auto it = workload_done.find(name); it != workload_done.end())
      p.done = it->second;
    resumed_ += p.done;
  }
  publish_locked("campaign.start", kTelemetryNoShard, "",
                 std::to_string(total_shards) + " shards, " +
                     std::to_string(resumed_) + " resumed",
                 /*sync=*/true);
  write_status_locked();
}

void TelemetryBus::train_start(const std::string& workload) {
  std::lock_guard<std::mutex> lock(mutex_);
  ++trainings_;
  publish_locked("train.start", kTelemetryNoShard, workload, "");
}

void TelemetryBus::train_cache_hit(const std::string& workload) {
  std::lock_guard<std::mutex> lock(mutex_);
  publish_locked("train.cache_hit", kTelemetryNoShard, workload, "");
}

void TelemetryBus::shard_claimed(std::uint64_t shard,
                                 const std::string& workload,
                                 const std::string& node_digest) {
  std::lock_guard<std::mutex> lock(mutex_);
  InFlight& f = in_flight_[shard];
  f.workload = workload;
  f.node_digest = node_digest;
  f.claimed_us = f.last_us = now_us();
  f.flagged = false;
  publish_locked("shard.claimed", shard, workload, node_digest);
}

void TelemetryBus::sim_start(std::uint64_t shard) {
  std::lock_guard<std::mutex> lock(mutex_);
  touch_locked(shard);
  auto it = in_flight_.find(shard);
  publish_locked("sim.start", shard,
                 it != in_flight_.end() ? it->second.workload : "", "");
}

void TelemetryBus::shard_done(std::uint64_t shard, bool artifact_hit) {
  std::lock_guard<std::mutex> lock(mutex_);
  std::string workload;
  auto it = in_flight_.find(shard);
  if (it != in_flight_.end()) {
    workload = it->second.workload;
    WorkloadProgress& p = workloads_[workload];
    ++p.done;
    p.dur_us_sum += now_us() - it->second.claimed_us;
    ++p.timed;
    in_flight_.erase(it);
  }
  ++executed_;
  if (artifact_hit) ++artifact_hits_;
  publish_locked("shard.done", shard, workload,
                 artifact_hit ? "artifact_hit" : "");
}

void TelemetryBus::shard_failed(std::uint64_t shard, const std::string& what) {
  std::lock_guard<std::mutex> lock(mutex_);
  std::string workload;
  auto it = in_flight_.find(shard);
  if (it != in_flight_.end()) {
    workload = it->second.workload;
    in_flight_.erase(it);
  }
  ++failed_;
  publish_locked("shard.failed", shard, workload, what);
  write_status_locked();
}

void TelemetryBus::shard_parked(std::uint64_t shard, bool parked) {
  std::lock_guard<std::mutex> lock(mutex_);
  touch_locked(shard);
  auto it = in_flight_.find(shard);
  if (it != in_flight_.end()) it->second.parked = parked;
}

void TelemetryBus::campaign_finish(bool complete) {
  std::lock_guard<std::mutex> lock(mutex_);
  finish_seen_ = true;
  state_ = complete ? "finished" : "stopped";
  publish_locked(complete ? "campaign.finish" : "campaign.stop",
                 kTelemetryNoShard, "", "", /*sync=*/true);
  write_status_locked();
}

void TelemetryBus::tick() {
  std::lock_guard<std::mutex> lock(mutex_);
  tick_locked();
}

void TelemetryBus::tick_locked() {
  ++heartbeats_;
  publish_locked("heartbeat", kTelemetryNoShard, "",
                 std::to_string(executed_) + " executed, " +
                     std::to_string(in_flight_.size()) + " in flight",
                 /*sync=*/true);
  // Straggler check: any in-flight shard quiet past the stall window is
  // flagged once, loudly — the digest points at the exact NodeConfig.
  const std::uint64_t now = now_us();
  const std::uint64_t window_us = options_.stall_ms * 1000;
  for (auto& [shard, f] : in_flight_) {
    if (f.flagged || f.parked || now - f.last_us <= window_us) continue;
    f.flagged = true;
    ++stalled_;
    const std::uint64_t quiet_ms = (now - f.last_us) / 1000;
    publish_locked("campaign.stall", shard, f.workload,
                   "node " + f.node_digest + " quiet for " +
                       std::to_string(quiet_ms) + " ms",
                   /*sync=*/true);
    OBS_COUNTER_ADD("campaign.stall.flagged", 1);
    std::fprintf(stderr,
                 "solsched-campaign: warning: shard %llu (workload %s, node "
                 "%s) has sent no event for %llu ms (stall window %llu ms)\n",
                 static_cast<unsigned long long>(shard), f.workload.c_str(),
                 f.node_digest.c_str(),
                 static_cast<unsigned long long>(quiet_ms),
                 static_cast<unsigned long long>(options_.stall_ms));
  }
  write_status_locked();
}

void TelemetryBus::watchdog_main() {
  std::unique_lock<std::mutex> lock(mutex_);
  while (!stop_) {
    cv_.wait_for(lock, std::chrono::milliseconds(options_.heartbeat_ms),
                 [this] { return stop_; });
    if (stop_) break;
    tick_locked();
  }
}

std::string TelemetryBus::status_json_locked() const {
  const std::uint64_t elapsed_us = now_us() - start_us_;
  const double elapsed_min = static_cast<double>(elapsed_us) / 60e6;
  std::size_t done = resumed_ + executed_;
  // shards/min measures *this process* — resumed shards cost nothing.
  const double throughput =
      elapsed_min > 0 ? static_cast<double>(executed_) / elapsed_min : 0.0;
  const std::size_t remaining = total_ > done ? total_ - done : 0;
  const double eta_s =
      throughput > 0 ? static_cast<double>(remaining) / throughput * 60.0
                     : 0.0;
  const double hit_rate =
      executed_ > 0
          ? static_cast<double>(artifact_hits_) / static_cast<double>(executed_)
          : 0.0;

  std::string out = "{\n";
  out += "  \"status\": \"" + std::string(kStatusMagic) + "\",\n";
  out += "  \"spec_digest\": \"" + json_escape(options_.spec_digest) + "\",\n";
  out += "  \"state\": \"" + state_ + "\",\n";
  out += "  \"wall_ms\": " + std::to_string(wall_ms()) + ",\n";
  out += "  \"elapsed_ms\": " + std::to_string(elapsed_us / 1000) + ",\n";
  out += "  \"threads\": " + std::to_string(options_.threads) + ",\n";
  out += "  \"heartbeat_ms\": " + std::to_string(options_.heartbeat_ms) + ",\n";
  out += "  \"stall_ms\": " + std::to_string(options_.stall_ms) + ",\n";
  out += "  \"heartbeats\": " + std::to_string(heartbeats_) + ",\n";
  out += "  \"shards\": {\"total\": " + std::to_string(total_) +
         ", \"done\": " + std::to_string(done) +
         ", \"resumed\": " + std::to_string(resumed_) +
         ", \"executed\": " + std::to_string(executed_) +
         ", \"in_flight\": " + std::to_string(in_flight_.size()) +
         ", \"failed\": " + std::to_string(failed_) +
         ", \"stalled\": " + std::to_string(stalled_) + "},\n";
  out += "  \"cache\": {\"artifact_hits\": " + std::to_string(artifact_hits_) +
         ", \"hit_rate\": " + render_double(hit_rate) +
         ", \"trainings\": " + std::to_string(trainings_) + "},\n";
  out += "  \"throughput_shards_per_min\": " + render_double(throughput) +
         ",\n";
  out += "  \"eta_s\": " + render_double(eta_s) + ",\n";
  out += "  \"workloads\": [";
  bool first = true;
  for (const std::string& name : workload_order_) {
    const auto it = workloads_.find(name);
    if (it == workloads_.end()) continue;
    const WorkloadProgress& p = it->second;
    if (!first) out += ", ";
    first = false;
    const double mean_ms =
        p.timed > 0 ? static_cast<double>(p.dur_us_sum) /
                          static_cast<double>(p.timed) / 1000.0
                    : 0.0;
    const std::size_t w_remaining = p.total > p.done ? p.total - p.done : 0;
    const double w_eta_s =
        mean_ms > 0
            ? static_cast<double>(w_remaining) * mean_ms / 1000.0 /
                  static_cast<double>(options_.threads > 0 ? options_.threads
                                                           : 1)
            : 0.0;
    out += "{\"workload\": \"" + json_escape(name) + "\"";
    out += ", \"total\": " + std::to_string(p.total);
    out += ", \"done\": " + std::to_string(p.done);
    out += ", \"mean_shard_ms\": " + render_double(mean_ms);
    out += ", \"eta_s\": " + render_double(w_eta_s);
    out += "}";
  }
  out += "]\n}\n";
  return out;
}

void TelemetryBus::write_status_locked() {
  // A watcher never sees a torn snapshot.
  util::write_atomic(options_.dir + "/status.json", status_json_locked());
}

void TelemetryBus::write_status() {
  std::lock_guard<std::mutex> lock(mutex_);
  write_status_locked();
}

TelemetryBus::Snapshot TelemetryBus::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Snapshot s;
  s.state = state_;
  s.total = total_;
  s.done = resumed_ + executed_;
  s.resumed = resumed_;
  s.in_flight = in_flight_.size();
  s.failed = failed_;
  s.stalled = stalled_;
  s.executed = executed_;
  s.artifact_hits = artifact_hits_;
  s.trainings = trainings_;
  s.heartbeats = heartbeats_;
  s.events = seq_;
  return s;
}

}  // namespace solsched::obs
