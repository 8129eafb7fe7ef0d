// The serving-side decision engine: controllers, degradation, hot-reload.
//
// The engine owns a read-mostly table from controller key (the campaign
// ArtifactCache's 64-bit artifact digest) to a loaded TrainedController,
// published through one std::shared_ptr<const Table> guarded by a small
// mutex. Request workers copy that pointer per query (a refcount bump under
// the lock) and decide against it, so a concurrent reload is one pointer
// swap to a fresh table: in-flight requests finish on the controller they
// started with, new requests see the new one, and nothing is ever torn —
// the shared_ptr keeps every superseded controller alive until its last
// reader drops it (the hot-reload memory-ordering contract of DESIGN.md
// §16).
//
// Degradation ladder (every rung replies, none throws):
//   1. key present + within budget  -> the DBN decision, exactly what an
//      offline ProposedScheduler produces for the same node state;
//   2. inference over budget        -> sched::lsa_fallback_plan on the
//      reconstructed bank (SERVE_FALLBACK_BUDGET_EXHAUSTED);
//   3. key missing or its artifact corrupt -> the LSA inter-task baseline
//      plan, bit-identical to offline LsaInterScheduler::begin_period
//      (keep the capacitor, all tasks);
//   4. request malformed w.r.t. the controller (bank width, cap index) ->
//      a typed SERVE_BAD_REQUEST error, never a guess.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/pipeline.hpp"
#include "serve/protocol.hpp"

namespace solsched::serve {

/// Thread-safe decision engine over hot-reloadable controllers.
class DecisionEngine {
 public:
  struct Options {
    std::string cache_dir;  ///< Campaign ArtifactCache directory.
    /// Test/ops override: assume every inference costs this many µs when
    /// checking a request's deadline budget. 0 = use the measured maximum,
    /// which starts at 0 (optimistic) and ratchets up as decisions run.
    std::uint64_t assume_infer_us = 0;
  };

  /// `decide` outcome: a decision or a typed refusal, never an exception.
  struct Outcome {
    bool ok = true;
    DecisionReply reply;  ///< Valid when ok.
    ErrorReply error;     ///< Valid when !ok.
  };

  explicit DecisionEngine(Options options);

  /// Loads every *.controller entry found in the cache directory. Returns
  /// the number loaded; corrupt entries are skipped with a stderr warning
  /// (they fall back at decide time like missing ones).
  std::size_t load_all();

  /// (Re)loads one controller by key from the cache, publishing it with an
  /// atomic table swap. On failure (missing file, corrupt bundle, bounds
  /// beyond the wire protocol) the table keeps serving whatever it had —
  /// a bad reload can degrade one key, never the daemon. Returns success
  /// and fills `*message` with a human-readable outcome either way.
  bool load_controller(std::uint64_t key, std::string* message);

  bool has_controller(std::uint64_t key) const;
  std::size_t controller_count() const;

  /// Answers one query. `remaining_us` is the request's unspent deadline
  /// budget (UINT64_MAX = unbounded). Pure modulo the infer-cost ratchet:
  /// the same request against the same controller yields the same bytes.
  Outcome decide(const QueryRequest& request, std::uint64_t remaining_us);

  /// Current per-decision cost estimate used by budget checks (µs).
  std::uint64_t expected_infer_us() const noexcept;

 private:
  using Table =
      std::map<std::uint64_t, std::shared_ptr<const core::TrainedController>>;

  std::shared_ptr<const Table> snapshot() const {
    std::lock_guard<std::mutex> lock(table_mutex_);
    return table_;
  }
  /// Swaps in `next`; the superseded table is released with the
  /// parameter, after the lock.
  void publish(std::shared_ptr<const Table> next) {
    std::lock_guard<std::mutex> lock(table_mutex_);
    table_.swap(next);
  }

  Options options_;
  // A plain mutex rather than std::atomic<std::shared_ptr>: libstdc++ 12
  // implements the latter with a lock bit ThreadSanitizer cannot model, and
  // the critical section is one refcount bump either way.
  mutable std::mutex table_mutex_;
  std::shared_ptr<const Table> table_;  ///< Guarded by table_mutex_.
  std::mutex reload_mutex_;  ///< Serializes copy-on-write publishers.
  std::atomic<std::uint64_t> measured_infer_us_{0};  ///< Observed maximum.
};

}  // namespace solsched::serve
