// Crash-safe campaign journal: the per-campaign result store (DESIGN.md §13).
//
// One JSONL file per campaign. Line 1 is a header binding the journal to a
// spec digest; every later line is one completed shard's record, appended
// under a mutex and fsync'd before append() returns — once a shard is
// acknowledged it survives a kill at any instant. Recovery is tolerant of
// exactly the damage a crash can cause (a truncated final line) and strict
// about everything else: a header/spec mismatch or garbage in the middle of
// the file is an error, not something to silently skip.
//
// Doubles are rendered with %.17g and re-read by the strict obs/json
// reader, an exact round trip; integers are read from their digits, never
// through a double, and a sign, fraction or exponent on one is an error
// naming the line. So aggregates computed from re-loaded records are
// bit-identical to aggregates computed from the in-memory records that
// produced them. That equivalence is what makes
// "interrupted + resumed == uninterrupted" hold to the last bit.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/durable.hpp"

namespace solsched::campaign {

/// One policy row of one scenario, as journaled.
struct ShardRow {
  std::string algo;
  double dmr = 0.0;
  double energy_utilization = 0.0;
  double migration_efficiency = 0.0;
  std::uint64_t brownouts = 0;
  double solar_j = 0.0;
  double served_j = 0.0;
  double loss_j = 0.0;
  std::uint64_t power_failure_slots = 0;
  std::uint64_t fallbacks = 0;
};

/// One completed scenario.
struct ShardRecord {
  std::size_t shard = 0;
  std::string key;                 ///< Scenario::key().
  std::string workload;
  std::uint64_t seed = 0;
  double intensity = 0.0;
  std::uint64_t artifact_key = 0;  ///< Offline-config digest; 0 = untrained.
  bool artifact_hit = false;       ///< Served from the on-disk cache.
  /// FNV-1a over the bit patterns of a deterministic probe batch pushed
  /// through Dbn::predict_batch — the controller's decision fingerprint.
  /// Identical across SIMD and scalar builds (the kernel layer's
  /// bit-exactness contract); 0 when the shard ran without a trained
  /// controller. Absent in pre-fingerprint journals (parses as 0).
  std::uint64_t controller_fingerprint = 0;
  std::vector<ShardRow> rows;

  /// One JSON line (no trailing newline), %.17g doubles.
  std::string to_json() const;
};

/// Append-only journal with fsync'd writes and crash-tolerant recovery.
class Journal {
 public:
  struct Recovered {
    std::vector<ShardRecord> records;  ///< Sorted by shard index.
    std::size_t dropped_partial = 0;   ///< 1 when a truncated tail was cut.
  };

  /// Parses an existing journal. `expected_spec_digest` must match the
  /// header (pass 0 to skip the check, e.g. for report-only consumers).
  /// A torn final line is dropped and counted (util::replay_lines); any
  /// other malformation (bad header, garbage mid-file, duplicate shard ids)
  /// throws std::runtime_error. Throws on unreadable files too; use
  /// std::filesystem::exists to probe first.
  static Recovered load(const std::string& path,
                        std::uint64_t expected_spec_digest);

  /// Opens `path` as a util::AppendLog: a crash-torn partial final line
  /// is truncated so new records never glue onto it, and a new or empty
  /// file gets the (fsync'd) header line. Throws util::IoError on I/O
  /// error.
  Journal(const std::string& path, std::uint64_t spec_digest);

  /// Appends one record with one write() and one fsync. Safe to call from
  /// pool workers.
  void append(const ShardRecord& record);

 private:
  util::AppendLog log_;
};

}  // namespace solsched::campaign
