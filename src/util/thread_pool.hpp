// Fixed-size thread pool and a deterministic parallel_for.
//
// Determinism contract (relied on by sched/, sizing/, core/ and ann/):
// parallel_for(n, fn) invokes fn(i) exactly once for every i in [0, n) and
// callers must write results only to pre-sized per-index slots; any
// reduction over those slots happens serially, in index order, after
// parallel_for returns. Under that discipline the numeric output is
// bit-identical at every thread count, including 1.
//
// The global pool is sized from the SOLSCHED_THREADS environment variable
// (default: std::thread::hardware_concurrency). Nested parallel_for regions
// share the pool: idle workers claim indices from the innermost open job.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>

namespace solsched::util {

/// A fixed set of worker threads executing index-ranged jobs.
class ThreadPool {
 public:
  /// Spawns `n_threads - 1` workers (the calling thread participates in
  /// every job). n_threads == 0 is clamped to 1 (fully serial).
  explicit ThreadPool(std::size_t n_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Configured parallelism (>= 1), counting the calling thread.
  std::size_t size() const noexcept;

  /// Runs fn(i) for every i in [0, n), blocking until all complete.
  /// The first exception (by smallest index i) is rethrown in the caller;
  /// once any body throws, not-yet-started indices are skipped.
  /// Safe to call from inside a body (nested) and from several threads at
  /// once; the caller works on its own indices, then waits without claiming
  /// others. Serial path: n <= 1 or size() == 1.
  void run(std::size_t n, const std::function<void(std::size_t)>& fn);

  /// Process-wide pool, created on first use with thread_count_from_env().
  static ThreadPool& global();

  /// Replaces the global pool with one of `n_threads` threads. Not safe
  /// while parallel work is in flight; intended for benches and tests that
  /// sweep thread counts from the main thread.
  static void set_global_threads(std::size_t n_threads);

  /// SOLSCHED_THREADS if set and valid, else hardware_concurrency (else 1).
  /// A set-but-malformed SOLSCHED_THREADS breaks the reproducibility pin the
  /// user thought they made, so it warns once to stderr before falling back.
  static std::size_t thread_count_from_env();

  /// Parses the SOLSCHED_THREADS grammar: decimal digits only (no sign,
  /// whitespace, hex or suffixes), value in [1, 65536]. Returns 0 for
  /// anything else — "all", "0x4", "-2", "0" and "" are all invalid.
  static std::size_t parse_thread_count(const char* text) noexcept;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// parallel_for over the global pool; see the determinism contract above.
template <typename Fn>
void parallel_for(std::size_t n, Fn&& fn) {
  ThreadPool::global().run(n, std::function<void(std::size_t)>(
                                  [&fn](std::size_t i) { fn(i); }));
}

}  // namespace solsched::util
