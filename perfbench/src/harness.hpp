// Shared pieces of the solsched_benchmark program: run options, the result a
// workload hands back, timing statistics, bench-side spans and the timing
// scheduler decorator.
//
// Spans are recorded by the benchmark around calls into the program's public
// functions, never inside the program: a workload's traced replay arms the
// obs Chrome-trace sink, records one span per layer call, writes the trace
// and folds it into per-name self times with obs::analysis::profile_trace.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/pipeline.hpp"
#include "nvp/scheduler.hpp"
#include "obs/analysis/profile.hpp"
#include "obs/span.hpp"
#include "solar/solar_trace.hpp"

namespace solsched::perfbench {

using Clock = std::chrono::steady_clock;

/// Command-line settings shared by every workload.
struct RunOptions {
  std::uint64_t seed = 2015;
  double seconds = 10.0;      ///< Length of the measured phase.
  bool trace = false;         ///< Traced replay (per-layer metrics) instead.
  std::string work_dir;       ///< Work directory owned by this run.
  std::string trace_path;     ///< Chrome trace of the traced replay.
  std::string expect_digest;  ///< Reference decision digest; "" = none.
  std::size_t nproc = 1;         ///< CPUs this process may run on.
  std::size_t pool_threads = 1;  ///< min(nproc, 4).
  /// Smoke run: the smallest inputs on which every check still runs (one
  /// set-up, one offline climate, a 12-shard campaign, one telemetry pair).
  /// Its digests differ from a full run's.
  bool smoke = false;
};

/// What one workload run reports.
struct WorkloadResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string digest;  ///< Hex FNV-1a decision digest.
  std::size_t generator_threads = 0;  ///< Load-generator threads (serve).
  /// Names of correctness checks that failed, with a short detail each.
  std::vector<std::string> failed_checks;
  /// Metric name -> value, in the units BENCHMARK.json lists.
  std::vector<std::pair<std::string, double>> metrics;
  /// Extra facts for the result file (sample counts, quartiles).
  std::vector<std::pair<std::string, double>> info;

  void metric(const std::string& name, double value) {
    metrics.emplace_back(name, value);
  }
  void note(const std::string& name, double value) {
    info.emplace_back(name, value);
  }
  /// Records a correctness check; a failing one counts as one failure.
  void check(bool ok, const std::string& name, const std::string& detail = {});
};

double seconds_between(Clock::time_point a, Clock::time_point b);
double ms_between(Clock::time_point a, Clock::time_point b);

/// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
double quantile(std::vector<double> xs, double q);

/// Hands freed heap memory back to the OS and restarts the kernel's
/// peak-RSS mark, so that peak_rss_mb() reports the peak of the measured
/// phase alone, whatever set-up left in the allocator. Throws when the
/// mark cannot be reset.
void reset_peak_rss();
/// Peak resident set since the last reset_peak_rss(), in MB (VmHWM).
double peak_rss_mb();

/// 64-bit FNV-1a of `text`, as 16 hex digits.
std::string fnv1a_hex(const std::string& text);

/// The paper-shape inputs the offline and serve workloads share: a seeded
/// 2-day trace with a partly-cloudy start on the paper grid (144 periods x
/// 20 slots x 30 s), a node on that grid, and the default PipelineConfig
/// with 4 capacitors.
solar::SolarTrace paper_trace(std::uint64_t seed);
nvp::NodeConfig paper_node();
core::PipelineConfig paper_pipeline();

/// Set-ups per run; setup_s is their median. A smoke run sets up once.
inline constexpr int kSetupReps = 5;

/// Runs `setup` kSetupReps times and returns the median wall time in
/// seconds; each call must rebuild the workload's state anew.
template <typename Fn>
double median_setup_s(const RunOptions& opts, Fn&& setup) {
  std::vector<double> secs;
  for (int i = 0; i < (opts.smoke ? 1 : kSetupReps); ++i) {
    const auto t0 = Clock::now();
    setup();
    secs.push_back(seconds_between(t0, Clock::now()));
  }
  return quantile(std::move(secs), 0.5);
}

/// Collects bench-side spans. Construction clears the obs trace sink and
/// arms it; record(false) pauses it for untraced stretches; finish() writes
/// the Chrome trace to `path`, disarms the sink and returns the folded
/// profile. The destructor disarms the sink on every path.
class SpanTrace {
 public:
  explicit SpanTrace(std::string path);
  ~SpanTrace();

  SpanTrace(const SpanTrace&) = delete;
  SpanTrace& operator=(const SpanTrace&) = delete;

  void record(bool on);
  obs::analysis::SpanProfile finish();

 private:
  std::string path_;
};

/// Records one span [start_us, obs::now_us()) into the armed sink (no-op
/// otherwise).
void end_span(const std::string& name, std::uint64_t start_us);

/// Self time of `name` in `profile`, in µs (0 when absent).
double self_us(const obs::analysis::SpanProfile& profile,
               const std::string& name);

/// The hardware core::run_comparison gives the storage-oblivious baselines:
/// the sized bank with the capacitor nearest the mean of the daily sizing
/// optima selected, or the largest one when there are no optima (a
/// cache-loaded controller carries none).
nvp::NodeConfig single_cap_node(const nvp::NodeConfig& sized,
                                const std::vector<double>& daily_optimal_f);

/// Transparent nvp::Scheduler decorator that adds up the wall time spent in
/// the wrapped policy: begin_trace (where the DP oracle solves) apart from
/// begin_period + schedule_slot (the per-period and per-slot decisions).
class TimedScheduler final : public nvp::Scheduler {
 public:
  explicit TimedScheduler(nvp::Scheduler& inner) : inner_(&inner) {}

  std::string name() const override { return inner_->name(); }
  void begin_trace(const task::TaskGraph& graph, const nvp::NodeConfig& config,
                   const solar::SolarTrace& trace) override;
  nvp::PeriodPlan begin_period(const nvp::PeriodContext& ctx) override;
  std::vector<std::size_t> schedule_slot(const nvp::SlotContext& ctx) override;

  std::uint64_t begin_trace_ns() const noexcept { return begin_trace_ns_; }
  std::uint64_t decide_ns() const noexcept { return decide_ns_; }

 private:
  nvp::Scheduler* inner_;
  std::uint64_t begin_trace_ns_ = 0;
  std::uint64_t decide_ns_ = 0;
};

/// Records a simulate() call that began at `start_us` and just returned as
/// three nested spans: `sim_name` over the whole call, with `solve_name`
/// (the policy's begin_trace) and `decide_name` (its per-period and
/// per-slot decisions) as children laid end to end from the call's start.
/// The children's placement inside the parent is synthetic; their
/// durations are the decorator's totals, which is all the self-time fold
/// needs.
void end_simulate_spans(std::uint64_t start_us, const TimedScheduler& timed,
                        const std::string& sim_name,
                        const std::string& solve_name,
                        const std::string& decide_name);

}  // namespace solsched::perfbench
