// Sharded campaign execution (DESIGN.md §13).
//
// run_campaign expands the spec into shards, cache-loads one controller per
// unique offline configuration, and runs the rest as one job set over
// util::ThreadPool — the pool's fetch_add index claiming gives dynamic load
// balancing for free — journaling each completion with an fsync'd append.
// Cache misses are labelled by the DP oracle on the set's first job (the
// training lane) and fitted on whichever job frees up, while the shards
// start beside them: a shard of a still-training workload runs its
// controller-free rows at once and its controller rows once the reloaded
// controller lands (DESIGN.md §13, "Cold schedule"). Aggregates are a pure function of the journal, so a campaign
// killed at any instant resumes from the journal to bit-identical results
// at any thread count.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "campaign/journal.hpp"
#include "campaign/spec.hpp"

namespace solsched::campaign {

struct CampaignConfig {
  CampaignSpec spec;
  std::string dir;        ///< Campaign directory (journal + default cache).
  std::string cache_dir;  ///< Artifact cache; "" = <dir>/cache. Sharing one
                          ///< cache across campaigns dedups training further.
  /// Stop claiming new shards once this many completed *in this process*
  /// (0 = run everything). The deterministic stand-in for a mid-flight kill:
  /// shards in flight finish and journal, nothing new starts, and shards
  /// deferred on a training stay unjournaled for the resume to recompute.
  std::size_t stop_after = 0;
  /// Telemetry cadence (DESIGN.md §15). Only consulted when observability
  /// is enabled — with SOLSCHED_OBS unset no bus is constructed and every
  /// publish site is a single null-pointer branch.
  std::uint64_t telemetry_heartbeat_ms = 1000;  ///< Heartbeat + status.json.
  std::uint64_t telemetry_stall_ms = 30000;     ///< Straggler flag window.
  /// Test/drill hook invoked inside the worker after sim.start is published
  /// (null = none). A hook that sleeps past telemetry_stall_ms is the
  /// watchdog drill: the shard goes quiet and must get flagged.
  std::function<void(std::size_t shard)> shard_hook;
};

struct CampaignResult {
  std::size_t total_shards = 0;
  std::size_t resumed = 0;       ///< Shards already in the journal at start.
  std::size_t executed = 0;      ///< Shards completed by this call.
  std::size_t trainings = 0;     ///< train_pipeline invocations.
  std::size_t artifact_disk_hits = 0;  ///< Unique configs served from disk.
  std::size_t artifact_hits = 0;  ///< Executed shards that reused an artifact
                                  ///< (trained earlier, this run or any run).
  bool finished = false;          ///< Every shard is now journaled.
  /// All journaled records (resumed + executed), sorted by shard index —
  /// the input of campaign::aggregate_*.
  std::vector<ShardRecord> records;
};

/// Runs (or resumes) the campaign. The journal lives at <dir>/journal.jsonl;
/// an existing journal must carry the same spec digest (else
/// std::runtime_error — a journal never mixes grids). Emits campaign.*
/// metrics and spans when observability is enabled.
CampaignResult run_campaign(const CampaignConfig& config);

}  // namespace solsched::campaign
