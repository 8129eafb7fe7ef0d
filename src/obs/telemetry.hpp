// Live campaign telemetry: the streaming-progress substrate of DESIGN.md §15.
//
// A TelemetryBus turns a long-running campaign from a black box into two
// continuously updated artifacts inside the campaign directory:
//
//  * telemetry.jsonl — an append-only stream of per-shard lifecycle events
//    (claimed / train-start / train-cache-hit / sim-start / done / failed),
//    monotonic heartbeats and stall flags. Every line is write()n to the
//    AppendLog immediately (readers see it through the page cache), but
//    fsync is batched: lifecycle boundaries (start/finish/stop/failed),
//    stall flags and heartbeat ticks sync; per-shard events ride the next
//    batch. A process kill can therefore tear at most the final line —
//    which a reopened bus heals exactly like Journal — and a kernel crash
//    loses at most one heartbeat interval of observational events (the
//    fsync'd Journal remains the ground truth for results).
//  * status.json — a periodically rewritten (util::write_atomic, never torn)
//    snapshot: shards done/total, per-workload ETA from observed shard
//    durations, artifact-cache hit rate, throughput in shards/min, and the
//    campaign state (running/stopped/finished/failed). `solsched-inspect
//    watch` renders it; its state field is the run's exit-code contract.
//
// The bus also owns the straggler watchdog: a background thread that wakes
// every heartbeat_ms to publish a heartbeat, rewrite status.json, and flag
// any in-flight shard that has produced no event for stall_ms — emitting a
// "campaign.stall" event, a campaign.stall.flagged metric and a stderr
// warning carrying the offending NodeConfig digest.
//
// Disabled path: the runner only constructs a bus when solsched::obs is
// enabled, so every publish site is `if (bus) bus->...` — one branch, zero
// allocations, and campaign journals/aggregates stay byte-identical to a
// telemetry-free build. Telemetry output is wall-clock shaped and therefore
// belongs to the documented *non-deterministic* family (like span.* and
// *_us metrics); nothing under it feeds the journal or the aggregates.
//
// Lock discipline: events are shard-granularity (a handful per shard, ~Hz,
// never per-slot), so one mutex over the counters + the fsync'd append is
// "lock-light" by construction — publishers never contend with the
// simulation hot path, only with each other at shard boundaries.
#pragma once

#include <cstdint>
#include <condition_variable>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "util/durable.hpp"

namespace solsched::obs {

/// Sentinel shard id for events not tied to one shard (heartbeats,
/// campaign lifecycle, training).
inline constexpr std::uint64_t kTelemetryNoShard = ~std::uint64_t{0};

/// One telemetry event, as streamed to telemetry.jsonl.
struct TelemetryEvent {
  std::uint64_t seq = 0;      ///< Assigned by the bus; gap-free per process.
  std::uint64_t wall_ms = 0;  ///< System-clock epoch milliseconds.
  std::string type;           ///< "shard.done", "heartbeat", ...
  std::uint64_t shard = kTelemetryNoShard;
  std::string workload;       ///< Empty when not applicable.
  std::string detail;         ///< Free-form (digest, error text); may be "".

  /// One JSON line (no trailing newline); empty optional fields omitted.
  std::string to_json() const;
};

/// A telemetry.jsonl stream read back (`solsched-inspect telemetry`).
struct TelemetryLog {
  std::string spec_digest;  ///< From the header line.
  std::vector<TelemetryEvent> events;
  std::size_t dropped_partial = 0;  ///< Crash-torn tail lines forgiven.
  /// type -> count census over `events`.
  std::map<std::string, std::size_t> census() const;
};

/// Reads telemetry.jsonl text through obs::replay_jsonl: a parse failure
/// is forgiven only on the final line (crash-torn tail). A bad header, a
/// malformed line before the last, or an event whose "seq", "ts_ms" or
/// "shard" is not an unsigned integer throws std::runtime_error.
TelemetryLog load_telemetry(const std::string& text);

/// Streaming progress/heartbeat publisher for one campaign execution.
/// Thread-safe: pool workers publish concurrently with the watchdog.
class TelemetryBus {
 public:
  struct Options {
    std::string dir;          ///< Campaign directory; files land inside it.
    std::string spec_digest;  ///< Hex spec digest for the stream header.
    /// Heartbeat + status.json rewrite cadence; 0 disables the watchdog
    /// thread (events and explicit write_status() still work).
    std::uint64_t heartbeat_ms = 1000;
    /// No-event window after which an in-flight shard is flagged stalled.
    std::uint64_t stall_ms = 30000;
    std::size_t threads = 1;  ///< Worker parallelism, for ETA math.
  };

  /// Rolling counters, exposed for tests.
  struct Snapshot {
    std::string state;        ///< running | stopped | finished | failed.
    std::size_t total = 0;    ///< Shards in the grid.
    std::size_t done = 0;     ///< Journaled shards (resumed + executed).
    std::size_t resumed = 0;  ///< Already journaled when the run started.
    std::size_t in_flight = 0;
    std::size_t failed = 0;
    std::size_t stalled = 0;  ///< Shards flagged by the watchdog (ever).
    std::size_t executed = 0; ///< Shards completed by this process.
    std::size_t artifact_hits = 0;  ///< Executed shards reusing an artifact.
    std::size_t trainings = 0;
    std::uint64_t heartbeats = 0;
    std::uint64_t events = 0; ///< Lines appended to telemetry.jsonl.
  };

  /// Opens (or resumes) <dir>/telemetry.jsonl — a util::AppendLog, so a
  /// crash-torn tail heals and a fresh file gets the header line — writes
  /// an initial "running" status.json, and starts the watchdog thread when
  /// heartbeat_ms > 0. Throws util::IoError on I/O failure.
  explicit TelemetryBus(Options options);
  /// Stops the watchdog and writes the final status.json. A bus destroyed
  /// without campaign_finish() records state "failed" (the run unwound
  /// through an exception); a kill leaves the last "running" snapshot,
  /// which watchers age out via its wall_ms.
  ~TelemetryBus();

  TelemetryBus(const TelemetryBus&) = delete;
  TelemetryBus& operator=(const TelemetryBus&) = delete;

  // ---- lifecycle publishers (each appends one JSONL event) ---------------
  void campaign_start(std::size_t total_shards,
                      const std::map<std::string, std::size_t>& workload_total,
                      const std::map<std::string, std::size_t>& workload_done);
  void train_start(const std::string& workload);
  void train_cache_hit(const std::string& workload);
  void shard_claimed(std::uint64_t shard, const std::string& workload,
                     const std::string& node_digest);
  void sim_start(std::uint64_t shard);
  void shard_done(std::uint64_t shard, bool artifact_hit);
  void shard_failed(std::uint64_t shard, const std::string& what);
  /// Parks (true) or unparks (false) an in-flight shard without an event:
  /// a parked shard waits on work outside itself (its controller still
  /// training), so the watchdog skips it; unparking restarts its quiet
  /// window.
  void shard_parked(std::uint64_t shard, bool parked);
  void campaign_finish(bool complete);  ///< true → finished, false → stopped.

  /// One watchdog tick, callable directly (tests, serial drills): publishes
  /// a heartbeat event, flags stalled shards, rewrites status.json.
  void tick();

  /// Rewrites <dir>/status.json atomically (util::write_atomic).
  void write_status();

  Snapshot snapshot() const;

  const std::string& dir() const noexcept { return options_.dir; }

 private:
  struct InFlight {
    std::string workload;
    std::string node_digest;
    std::uint64_t claimed_us = 0;  ///< steady now_us() at claim.
    std::uint64_t last_us = 0;     ///< steady now_us() of the last event.
    bool flagged = false;          ///< Stall warning already emitted.
    bool parked = false;           ///< Waiting; exempt from the watchdog.
  };
  struct WorkloadProgress {
    std::size_t total = 0;
    std::size_t done = 0;
    std::uint64_t dur_us_sum = 0;  ///< Observed durations (this process).
    std::size_t timed = 0;         ///< Shards contributing to dur_us_sum.
  };

  void publish_locked(std::string type, std::uint64_t shard,
                      std::string workload, std::string detail,
                      bool sync = false);
  void touch_locked(std::uint64_t shard);
  std::string status_json_locked() const;
  void write_status_locked();
  void tick_locked();
  void watchdog_main();

  Options options_;
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread watchdog_;

  util::AppendLog log_;
  std::uint64_t seq_ = 0;
  std::uint64_t start_us_ = 0;       ///< steady now_us() at construction.
  std::uint64_t start_wall_ms_ = 0;
  std::string state_ = "running";
  bool finish_seen_ = false;

  std::size_t total_ = 0;
  std::size_t resumed_ = 0;
  std::size_t executed_ = 0;
  std::size_t failed_ = 0;
  std::size_t stalled_ = 0;
  std::size_t artifact_hits_ = 0;
  std::size_t trainings_ = 0;
  std::uint64_t heartbeats_ = 0;
  std::map<std::uint64_t, InFlight> in_flight_;
  std::vector<std::string> workload_order_;
  std::map<std::string, WorkloadProgress> workloads_;
};

}  // namespace solsched::obs
