// Content-addressed on-disk cache of expensive offline artifacts.
//
// Scenarios that share an offline configuration (same workload, training
// climate, node physics and pipeline knobs) must train the controller once,
// not once per scenario — in the paper's grids the offline pipeline is by
// far the dominant cost. The cache key is a 64-bit FNV-1a digest built from
// the PR-4 NodeConfig digest plus the workload and every training knob; the
// value is the core::serialize_controller bundle, written through
// util::write_atomic so a crash mid-store never leaves a readable
// half-artifact.
//
// Determinism note: the campaign runner uses the *deserialized* controller
// even right after training one (store then load back). The serialized
// bundle drops offline-only diagnostics (LUT, sizing table, option cache),
// so normalizing both the hit and the miss path through the same round trip
// makes every scenario's rows bit-identical regardless of whether its
// artifact was cached — the property the crash/resume contract rests on.
// The same holds for rows computed before a controller exists: on a miss
// the runner starts the controller-free rows on core::deployed_node(sized
// node), the node as this round trip rebuilds it, while training runs.
#pragma once

#include <cstdint>
#include <string>

#include "core/pipeline.hpp"

namespace solsched::campaign {

class ArtifactCache {
 public:
  /// Binds the cache to `dir`, creating it (and parents) if needed.
  /// Throws std::runtime_error when the directory cannot be created.
  explicit ArtifactCache(std::string dir);

  /// Loads the controller stored under `key` into `*out`. Returns false on
  /// a miss; an unreadable or corrupt entry also counts as a miss (the
  /// caller retrains and overwrites), with a one-line stderr warning.
  bool load(std::uint64_t key, core::TrainedController* out) const;

  /// Atomically stores `controller` under `key` (util::write_atomic).
  /// Throws util::IoError on I/O failure, leaving no .tmp behind.
  void store(std::uint64_t key, const core::TrainedController& controller) const;

  /// The entry path for `key`: <dir>/<016x-hex>.controller.
  std::string path_of(std::uint64_t key) const;

  const std::string& dir() const noexcept { return dir_; }

 private:
  std::string dir_;
};

}  // namespace solsched::campaign
