// Always-on request-path statistics of the solsched-serve daemon.
//
// The daemon's status.json must be truthful even in SOLSCHED_OBS-off runs
// (the tier-1 drill and `solsched-inspect watch` read it unconditionally),
// so these counters do not ride the obs registry: they are a fixed set of
// relaxed atomics plus one fixed-bucket latency histogram, cheap enough to
// update on every request. The obs metrics mirror the same facts behind
// the usual one-branch enabled() contract for runs that want the full
// registry/span machinery.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>

namespace solsched::serve {

/// Upper bounds (µs) of the request-latency buckets, plus an implicit
/// overflow bucket. Spans connect-to-reply times from sub-50µs cache hits
/// to pathological half-second stalls.
inline constexpr std::array<std::uint64_t, 12> kLatencyBoundsUs = {
    50,    100,   200,    500,    1000,   2000,
    5000,  10000, 20000,  50000,  100000, 500000};

/// Thread-safe rolling counters of one server's lifetime.
class ServeStats {
 public:
  void record_request() noexcept { requests_.fetch_add(1, kRelaxed); }
  /// `fallback_code` is the DecisionReply code: 0 = the DBN plan was
  /// served; 1..4 = a sched-layer fallback; 16/17/18 = the serve-layer
  /// degradation rungs. Each rung keeps its own counter so status.json
  /// (and `solsched-inspect watch`) can say *which* rung a degraded
  /// deployment is standing on, not just that it degraded.
  void record_decision(std::uint64_t latency_us,
                       std::uint16_t fallback_code) noexcept;
  void record_malformed() noexcept { malformed_.fetch_add(1, kRelaxed); }
  void record_shed() noexcept { shed_.fetch_add(1, kRelaxed); }
  void record_timeout() noexcept { timeouts_.fetch_add(1, kRelaxed); }
  void record_error() noexcept { errors_.fetch_add(1, kRelaxed); }
  void record_reload() noexcept { reloads_.fetch_add(1, kRelaxed); }
  void record_fault_injected() noexcept { faults_.fetch_add(1, kRelaxed); }

  /// Queue-depth tracking (current and high-water mark).
  void queue_enter() noexcept;
  void queue_leave() noexcept { depth_.fetch_sub(1, kRelaxed); }

  struct Snapshot {
    std::uint64_t requests = 0;
    std::uint64_t decisions = 0;
    std::uint64_t fallbacks = 0;
    /// Degradation-ladder rung counts (subsets of `fallbacks`).
    std::uint64_t fallback_no_controller = 0;  ///< Code 16.
    std::uint64_t fallback_corrupt = 0;        ///< Code 17.
    std::uint64_t fallback_budget = 0;         ///< Code 18.
    std::uint64_t fallback_sched = 0;          ///< Codes 1..4.
    std::uint64_t malformed = 0;
    std::uint64_t shed = 0;
    std::uint64_t timeouts = 0;
    std::uint64_t errors = 0;
    std::uint64_t reloads = 0;
    std::uint64_t faults_injected = 0;
    std::uint64_t queue_depth = 0;
    std::uint64_t queue_peak = 0;
    std::uint64_t latency_count = 0;
    std::uint64_t latency_sum_us = 0;
    std::uint64_t p50_us = 0;  ///< Bucket upper bound; 0 when empty.
    std::uint64_t p99_us = 0;
    /// Raw cumulative bucket counts (kLatencyBoundsUs layout + overflow),
    /// for consumers that window the distribution (the SLO engine).
    std::array<std::uint64_t, kLatencyBoundsUs.size() + 1> latency_buckets{};
  };
  Snapshot snapshot() const noexcept;

 private:
  static constexpr auto kRelaxed = std::memory_order_relaxed;

  /// Nearest-rank percentile over the bucket counts: the upper bound of
  /// the bucket containing the rank'th sample (overflow bucket reports
  /// 2x the last bound as a sentinel magnitude).
  static std::uint64_t percentile_us(
      const std::array<std::uint64_t, kLatencyBoundsUs.size() + 1>& counts,
      std::uint64_t total, double q) noexcept;

  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> decisions_{0};
  std::atomic<std::uint64_t> fallbacks_{0};
  std::atomic<std::uint64_t> fallback_no_controller_{0};
  std::atomic<std::uint64_t> fallback_corrupt_{0};
  std::atomic<std::uint64_t> fallback_budget_{0};
  std::atomic<std::uint64_t> fallback_sched_{0};
  std::atomic<std::uint64_t> malformed_{0};
  std::atomic<std::uint64_t> shed_{0};
  std::atomic<std::uint64_t> timeouts_{0};
  std::atomic<std::uint64_t> errors_{0};
  std::atomic<std::uint64_t> reloads_{0};
  std::atomic<std::uint64_t> faults_{0};
  std::atomic<std::uint64_t> depth_{0};
  std::atomic<std::uint64_t> peak_{0};
  std::atomic<std::uint64_t> latency_count_{0};
  std::atomic<std::uint64_t> latency_sum_us_{0};
  std::array<std::atomic<std::uint64_t>, kLatencyBoundsUs.size() + 1>
      buckets_{};
};

}  // namespace solsched::serve
