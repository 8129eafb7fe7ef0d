// Long-term optimal scheduler (the paper's static upper bound, Sec. 4.2).
//
// Solves the simplified formulation (Eq. 12-14) by dynamic programming:
// state = (capacitor choice, discretized usable energy), one transition per
// period drawn from the per-period Pareto frontier (miss count vs. consumed
// energy), capacitor switches allowed at day boundaries (energy left in the
// abandoned capacitor is written off — the paper notes inter-day migration
// is rare because storage is drained overnight anyway).
//
// The same machinery doubles as the *training oracle*: its per-period
// decisions (capacitor, te, α) become the DBN's labelled samples, and every
// evaluated option is recorded into the Eq. 13 LUT.
//
// A finite `horizon_periods` plus `forecast_noise` turns the oracle into a
// bounded-lookahead planner with degrading long-range forecasts — the knob
// behind the paper's Fig. 10(a) prediction-length study.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "nvp/scheduler.hpp"
#include "sched/lut.hpp"
#include "sched/period_option_cache.hpp"
#include "sched/period_optimizer.hpp"
#include "sched/sched_util.hpp"

namespace solsched::sched {

/// DP configuration.
struct OptimalConfig {
  std::size_t energy_buckets = 14;  ///< Usable-energy discretization per cap.
  /// Planning window in periods; 0 = the whole trace at once (pure oracle).
  std::size_t horizon_periods = 0;
  /// Relative forecast error growth per day of lookahead (0 = oracle).
  /// Within a window, the solar the DP sees at lookahead L days is scaled by
  /// a deterministic pseudo-random factor with stddev forecast_noise * L.
  double forecast_noise = 0.0;
  std::uint64_t noise_seed = 99;
  bool allow_cap_switch = true;  ///< Day-boundary capacitor re-selection.

  /// Memoize pareto_options across DP cells and the backtrack. The cache is
  /// exact: with identical remaining knobs, cached and uncached runs produce
  /// bit-identical plans, LUTs and miss counts.
  bool use_option_cache = true;
  /// Snap each label's start voltage onto a grid of this many points on the
  /// DP's sqrt-usable-energy axis before evaluating its period options
  /// (0 = exact v0, the pure-oracle default). Applied in cached AND
  /// uncached runs alike, so it never breaks cache/no-cache equivalence; it
  /// trades sub-grid start-voltage detail for cross-cell cache hits. The
  /// offline pipeline turns this on (see PipelineConfig), where the small
  /// plan perturbation is within training noise; leave at 0 where exact
  /// oracle optimality matters.
  std::size_t v0_quant_steps = 0;
  /// Optional externally owned cache, e.g. shared between the training
  /// oracle and a comparison run on the same trace. Null = private cache.
  std::shared_ptr<PeriodOptionCache> shared_cache;
};

/// Per-period decision recovered from the DP.
struct PlannedPeriod {
  std::size_t cap_index = 0;
  std::vector<bool> te;
  double alpha = 0.0;
  std::size_t planned_misses = 0;
  double planned_consumed_j = 0.0;
  double planned_v0 = 0.0;  ///< Bucket-center voltage the plan assumed.
};

/// Offline optimal policy (requires the full trace in begin_trace).
class OptimalScheduler final : public nvp::Scheduler {
 public:
  explicit OptimalScheduler(OptimalConfig config = {});

  std::string name() const override { return "Optimal"; }

  void begin_trace(const task::TaskGraph& graph, const nvp::NodeConfig& config,
                   const solar::SolarTrace& trace) override;
  nvp::PeriodPlan begin_period(const nvp::PeriodContext& ctx) override;
  std::vector<std::size_t> schedule_slot(const nvp::SlotContext& ctx) override;

  /// The DP's plan, one entry per flat period (valid after begin_trace).
  const std::vector<PlannedPeriod>& plan() const noexcept { return plan_; }

  /// Every option the DP evaluated, as Eq. 13 LUT entries.
  const Lut& lut() const noexcept { return lut_; }

  /// Total misses the DP expects over the trace (lower bound estimate).
  std::size_t planned_total_misses() const noexcept { return planned_misses_; }

  /// Number of per-period Pareto evaluations the DP performed — the
  /// planning-complexity measure reported by the Fig. 10(a) bench.
  std::size_t dp_evaluations() const noexcept { return dp_evaluations_; }

  /// Hit/miss/eviction counters of the option cache (all-zero when
  /// use_option_cache is false). Valid after begin_trace.
  OptionCacheStats option_cache_stats() const {
    return cache_ ? cache_->stats() : OptionCacheStats{};
  }

 private:
  void run_dp(const task::TaskGraph& graph, const nvp::NodeConfig& config,
              const solar::SolarTrace& trace);

  OptimalConfig config_;
  std::shared_ptr<PeriodOptionCache> cache_;  ///< Null when caching is off.
  std::vector<PlannedPeriod> plan_;
  Lut lut_;
  std::size_t planned_misses_ = 0;
  std::size_t dp_evaluations_ = 0;
  // Execution-time state (greedy-lazy placement over the planned te).
  const solar::SolarTrace* trace_ = nullptr;
  double direct_eta_ = 0.92;
  std::span<const double> period_solar_;  ///< Current period, from trace_.
  // Slot-path buffers, reused across slots.
  LoadMatchScratch scratch_;
  std::vector<bool> all_enabled_;
  std::vector<bool> must_run_;
  std::vector<bool> off_plan_;
  std::vector<bool> nvp_busy_;
  std::vector<std::size_t> chosen_;
};

}  // namespace solsched::sched
