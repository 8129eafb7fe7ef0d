#include "sched/optimal.hpp"

#include <algorithm>
#include <cstdint>
#include <cmath>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "sched/sched_util.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace solsched::sched {
namespace {

constexpr double kInf = std::numeric_limits<double>::max() / 4;

/// Deterministic per-period forecast perturbation factor.
double forecast_factor(std::uint64_t seed, std::size_t window_start,
                       std::size_t period, double sigma) {
  if (sigma <= 0.0) return 1.0;
  util::Rng rng(seed ^ (window_start * 0x9E3779B9ull) ^ (period * 0x85EBCA6Bull));
  return std::max(0.05, 1.0 + sigma * rng.normal());
}

}  // namespace

OptimalScheduler::OptimalScheduler(OptimalConfig config)
    : config_(std::move(config)) {
  if (config_.energy_buckets == 0)
    throw std::invalid_argument("OptimalScheduler: need >= 1 energy bucket");
  if (config_.use_option_cache)
    cache_ = config_.shared_cache ? config_.shared_cache
                                  : std::make_shared<PeriodOptionCache>();
}

void OptimalScheduler::begin_trace(const task::TaskGraph& graph,
                                   const nvp::NodeConfig& config,
                                   const solar::SolarTrace& trace) {
  trace_ = &trace;
  direct_eta_ = config.pmu.direct_eta;
  // The option cache keys on (solar, capacity, v0) alone, so its entries
  // hold for one (graph, node) pair only. A private cache therefore starts
  // every trace empty; a shared cache's owner vouches for the pairing.
  if (cache_ && !config_.shared_cache) cache_->clear();
  run_dp(graph, config, trace);
}

void OptimalScheduler::run_dp(const task::TaskGraph& graph,
                              const nvp::NodeConfig& config,
                              const solar::SolarTrace& trace) {
  OBS_SPAN("dp.run");
  const solar::TimeGrid& grid = trace.grid();
  const std::size_t n_periods = grid.total_periods();
  const std::size_t n_caps = config.capacities_f.size();
  const std::size_t n_buckets = config_.energy_buckets;
  const double dt = grid.dt_s;

  if (graph.size() > 64)
    throw std::invalid_argument(
        "OptimalScheduler: task graphs above 64 tasks are not supported "
        "(the DP packs the te decision into a 64-bit mask); got " +
        std::to_string(graph.size()) + " tasks");

  PeriodOptimizer optimizer(graph, config.pmu, config.regulators,
                            config.leakage, config.v_low, config.v_high, dt);

  // One funnel for every option-set derivation: quantize the start voltage
  // (identically with or without the cache, so cached and uncached runs
  // stay bit-identical), then memoize on the exact resulting key.
  const auto options_for = [&](const std::vector<double>& solar_w,
                               double capacity_f, double v0) {
    const double vq = PeriodOptionCache::quantize_v0(
        v0, config.v_low, config.v_high, config_.v0_quant_steps);
    if (!cache_) {
      OBS_SPAN("dp.pareto_options");
      return std::make_shared<const std::vector<PeriodOption>>(
          optimizer.pareto_options(solar_w, capacity_f, vq));
    }
    return cache_->lookup_or_compute(solar_w, capacity_f, vq, [&] {
      OBS_SPAN("dp.pareto_options");
      return optimizer.pareto_options(solar_w, capacity_f, vq);
    });
  };
  const auto quantized_v0 = [&](double v0) {
    return PeriodOptionCache::quantize_v0(v0, config.v_low, config.v_high,
                                          config_.v0_quant_steps);
  };

  // Per-capacitor bucket geometry over usable energy. Buckets only bound the
  // number of labels kept per layer; each label carries its *continuous*
  // stored energy, so per-period gains smaller than a bucket still
  // accumulate across periods (flooring energy to bucket edges would make
  // overnight banking impossible). Square-root spacing concentrates label
  // resolution at low stored energy where decisions are most sensitive.
  std::vector<double> max_usable(n_caps);
  for (std::size_t h = 0; h < n_caps; ++h) {
    const double c = config.capacities_f[h];
    max_usable[h] =
        0.5 * c * (config.v_high * config.v_high - config.v_low * config.v_low);
  }
  auto bucket_of = [&](std::size_t h, double usable) -> std::size_t {
    const double frac = std::sqrt(std::max(0.0, usable) / max_usable[h]);
    const auto b = static_cast<long long>(frac * static_cast<double>(n_buckets));
    return static_cast<std::size_t>(
        std::clamp<long long>(b, 0, static_cast<long long>(n_buckets) - 1));
  };
  auto voltage_of = [&](std::size_t h, double usable) -> double {
    const double c = config.capacities_f[h];
    const double floor_j = 0.5 * c * config.v_low * config.v_low;
    return std::sqrt(2.0 * (std::max(0.0, usable) + floor_j) / c);
  };

  plan_.assign(n_periods, {});
  planned_misses_ = 0;
  dp_evaluations_ = 0;

  const std::size_t horizon =
      config_.horizon_periods == 0 ? n_periods : config_.horizon_periods;

  // Committed state carried across planning windows.
  std::size_t state_h = config.initial_cap;
  double state_usable = config.initial_usable_j;

  // One DP label per (layer, capacitor, bucket): dominance keeps the lowest
  // cost, ties broken toward more stored energy.
  struct Cell {
    double cost = kInf;
    double usable = 0.0;
    int prev_h = -1;
    int prev_b = -1;
    bool from_switch = false;     ///< Day-boundary capacitor change marker.
    std::uint64_t te_mask = 0;    ///< Decision that produced this label.
    float alpha = 0.0f;
    float consumed = 0.0f;
    std::uint8_t misses = 0;
  };
  auto relax = [](Cell& to, const Cell& candidate) {
    if (candidate.cost < to.cost - 1e-12 ||
        (std::fabs(candidate.cost - to.cost) <= 1e-12 &&
         candidate.usable > to.usable)) {
      to = candidate;
      return true;
    }
    return false;
  };
  auto mask_of = [](const std::vector<bool>& te) {
    std::uint64_t mask = 0;
    for (std::size_t n = 0; n < te.size(); ++n)
      if (te[n]) mask |= (std::uint64_t{1} << n);
    return mask;
  };

  for (std::size_t w0 = 0; w0 < n_periods; w0 += horizon) {
    const std::size_t w1 = std::min(n_periods, w0 + horizon);
    const std::size_t len = w1 - w0;

    // Forecast-noisy solar per period of the window (Fig. 10a knob).
    std::vector<std::vector<double>> window_solar(len);
    for (std::size_t i = 0; i < len; ++i) {
      const std::size_t p = w0 + i;
      const double lookahead_days =
          static_cast<double>(i) / static_cast<double>(grid.n_periods);
      const double factor = forecast_factor(
          config_.noise_seed, w0, p, config_.forecast_noise * lookahead_days);
      window_solar[i] =
          trace.period_powers(p / grid.n_periods, p % grid.n_periods);
      for (double& s : window_solar[i]) s *= factor;
    }

    std::vector<std::vector<Cell>> layers(
        len + 1, std::vector<Cell>(n_caps * n_buckets));
    auto at = [&](std::vector<Cell>& layer, std::size_t h,
                  std::size_t b) -> Cell& { return layer[h * n_buckets + b]; };

    {
      Cell& start = at(layers[0], state_h, bucket_of(state_h, state_usable));
      start.cost = 0.0;
      start.usable = state_usable;
    }

    for (std::size_t i = 0; i < len; ++i) {
      const std::size_t p = w0 + i;
      // Day-boundary capacitor re-selection: the abandoned capacitor's
      // energy is written off (the paper: inter-day carry-over is rare
      // because storage drains overnight anyway).
      if (config_.allow_cap_switch && p % grid.n_periods == 0) {
        for (std::size_t h = 0; h < n_caps; ++h)
          for (std::size_t b = 0; b < n_buckets; ++b) {
            const Cell from = at(layers[i], h, b);
            if (from.cost >= kInf) continue;
            for (std::size_t h2 = 0; h2 < n_caps; ++h2) {
              if (h2 == h) continue;
              Cell candidate;
              candidate.cost = from.cost;
              candidate.usable = 0.0;
              candidate.prev_h = static_cast<int>(h);
              candidate.prev_b = static_cast<int>(b);
              candidate.from_switch = true;
              relax(at(layers[i], h2, 0), candidate);
            }
          }
      }

      // Two-phase row expansion. Phase 1 derives every live label's option
      // set on the thread pool — pareto_options is pure, and the option
      // cache computes outside its lock, so concurrent derivation produces
      // the same vectors a serial sweep would. Phase 2 relaxes serially in
      // ascending (h, b) order, so label ties resolve exactly as before:
      // the DP outcome is bit-identical at every thread count.
      std::vector<std::size_t> live;
      live.reserve(n_caps * n_buckets);
      for (std::size_t h = 0; h < n_caps; ++h)
        for (std::size_t b = 0; b < n_buckets; ++b)
          if (at(layers[i], h, b).cost < kInf)
            live.push_back(h * n_buckets + b);

      std::vector<std::shared_ptr<const std::vector<PeriodOption>>>
          row_options(live.size());
      util::parallel_for(live.size(), [&](std::size_t k) {
        const std::size_t h = live[k] / n_buckets;
        const Cell& from = layers[i][live[k]];
        row_options[k] = options_for(window_solar[i], config.capacities_f[h],
                                     voltage_of(h, from.usable));
      });

      for (std::size_t k = 0; k < live.size(); ++k) {
        const std::size_t h = live[k] / n_buckets;
        const std::size_t b = live[k] % n_buckets;
        const Cell& from = at(layers[i], h, b);
        ++dp_evaluations_;
        const auto& options = row_options[k];
        for (const PeriodOption& opt : *options) {
          Cell candidate;
          candidate.cost = from.cost + static_cast<double>(opt.misses);
          candidate.usable = opt.final_usable_j;
          candidate.prev_h = static_cast<int>(h);
          candidate.prev_b = static_cast<int>(b);
          candidate.te_mask = mask_of(opt.te);
          candidate.alpha = static_cast<float>(opt.alpha);
          candidate.consumed = static_cast<float>(opt.consumed_cap_j);
          candidate.misses = static_cast<std::uint8_t>(opt.misses);
          relax(at(layers[i + 1], h, bucket_of(h, opt.final_usable_j)),
                candidate);
        }
      }
    }

    // Best terminal label; ties toward more stored energy.
    std::size_t best_h = 0, best_b = 0;
    double best_cost = kInf, best_usable = -1.0;
    for (std::size_t h = 0; h < n_caps; ++h)
      for (std::size_t b = 0; b < n_buckets; ++b) {
        const Cell& cell = at(layers[len], h, b);
        if (cell.cost < best_cost - 1e-12 ||
            (std::fabs(cell.cost - best_cost) <= 1e-12 &&
             cell.usable > best_usable)) {
          best_cost = cell.cost;
          best_usable = cell.usable;
          best_h = h;
          best_b = b;
        }
      }
    if (best_cost >= kInf)
      throw std::logic_error("OptimalScheduler: DP found no feasible path");

    // Backtrack: recover the plan; re-derive each path state's full option
    // set once more for the LUT (the paper's "optimal samples").
    std::size_t h = best_h, b = best_b;
    for (std::size_t i = len; i-- > 0;) {
      const Cell cell = at(layers[i + 1], h, b);
      const auto ph = static_cast<std::size_t>(cell.prev_h);
      const auto pb = static_cast<std::size_t>(cell.prev_b);
      const Cell& prev = at(layers[i], ph, pb);

      PlannedPeriod planned;
      planned.cap_index = ph;
      planned.te.assign(graph.size(), false);
      for (std::size_t n = 0; n < graph.size(); ++n)
        planned.te[n] = (cell.te_mask >> n) & 1u;
      planned.alpha = cell.alpha;
      planned.planned_misses = cell.misses;
      planned.planned_consumed_j = cell.consumed;
      // The quantized voltage is what the options were evaluated at; record
      // it so plan and LUT describe the evaluation that actually ran.
      planned.planned_v0 = quantized_v0(voltage_of(ph, prev.usable));
      plan_[w0 + i] = std::move(planned);
      planned_misses_ += cell.misses;

      double solar_energy = 0.0;
      for (double sw : window_solar[i]) solar_energy += sw * dt;
      const auto options = options_for(window_solar[i],
                                       config.capacities_f[ph],
                                       voltage_of(ph, prev.usable));
      for (const auto& sibling : *options) {
        LutEntry entry;
        entry.key = LutKey{
            static_cast<double>(sibling.misses) /
                static_cast<double>(std::max<std::size_t>(1, graph.size())),
            solar_energy, config.capacities_f[ph],
            quantized_v0(voltage_of(ph, prev.usable))};
        entry.consumed_j = sibling.consumed_cap_j;
        entry.alpha = sibling.alpha;
        entry.te = sibling.te;
        lut_.insert(std::move(entry));
      }

      h = ph;
      b = pb;
      // Unwind any day-boundary switch relaxation.
      while (at(layers[i], h, b).from_switch) {
        const Cell& cur = at(layers[i], h, b);
        h = static_cast<std::size_t>(cur.prev_h);
        b = static_cast<std::size_t>(cur.prev_b);
      }
    }

    state_h = best_h;
    state_usable = best_usable;
  }

  OBS_COUNTER_ADD("sched.dp.runs", 1);
  OBS_COUNTER_ADD("sched.dp.periods_planned", n_periods);
  OBS_COUNTER_ADD("sched.dp.evaluations", dp_evaluations_);
  OBS_COUNTER_ADD("sched.dp.planned_misses", planned_misses_);
  OBS_COUNTER_ADD("sched.dp.lut_entries", lut_.size());
}

nvp::PeriodPlan OptimalScheduler::begin_period(const nvp::PeriodContext& ctx) {
  const std::size_t flat = ctx.grid->flat_period(ctx.day, ctx.period);
  const PlannedPeriod& planned = plan_.at(flat);
  period_solar_ = trace_->period_view(ctx.day, ctx.period);
  nvp::PeriodPlan plan;
  plan.select_cap = planned.cap_index;
  // The planned te drives prioritization inside schedule_slot; the engine
  // sees everything enabled so off-plan tasks may still scavenge solar
  // surplus the bucket-quantized plan did not anticipate.
  return plan;
}

std::vector<std::size_t> OptimalScheduler::schedule_slot(
    const nvp::SlotContext& ctx) {
  const auto& graph = *ctx.graph;
  const auto& state = *ctx.state;
  const double dt = ctx.grid->dt_s;
  const std::size_t flat = ctx.grid->flat_period(ctx.day, ctx.period);
  const std::vector<bool>& te = plan_.at(flat).te;

  // Oracle suffix energy within the remainder of this period.
  const std::size_t n_slots = ctx.grid->n_slots;
  const std::span<const double> solar = period_solar_;

  if (te.empty()) all_enabled_.assign(graph.size(), true);
  const std::vector<bool>& enabled = te.empty() ? all_enabled_ : te;

  // Oracle starvation forcing, as in the period optimizer.
  must_run_.assign(graph.size(), false);
  state.live_ready_tasks_into(ctx.now_in_period_s, scratch_.live);
  for (std::size_t id : scratch_.live) {
    if (!enabled[id]) continue;
    const auto& t = graph.task(id);
    const auto dl_slot = std::min(
        n_slots,
        static_cast<std::size_t>(std::max(0.0, t.deadline_s / dt + 0.5)));
    double future_j = 0.0;
    for (std::size_t m = ctx.slot; m < dl_slot; ++m) future_j += solar[m] * dt;
    if (future_j * direct_eta_ < state.remaining_s(id) * t.power_w)
      must_run_[id] = true;
  }

  const double direct_budget_w = ctx.solar_w * direct_eta_;
  const double max_load_w =
      ctx.pmu->supplyable_j(ctx.solar_w, *ctx.bank, dt) / dt;
  std::vector<std::size_t>& chosen = chosen_;
  load_match_decision(graph, state, scratch_.live, ctx.now_in_period_s, dt,
                      enabled, direct_budget_w, must_run_, max_load_w,
                      scratch_, chosen);
  double committed_w = 0.0;
  for (std::size_t id : chosen) committed_w += graph.task(id).power_w;

  // Scavenging pass: tasks outside the planned te may run on *free solar
  // only* (never storage), using NVPs the plan left idle. This can only
  // lower the realized DMR relative to the plan.
  off_plan_.assign(graph.size(), false);
  for (std::size_t id = 0; id < graph.size(); ++id)
    off_plan_[id] = te.empty() ? false : !te[id];
  nvp_busy_.assign(graph.nvp_count(), false);
  for (std::size_t id : chosen) nvp_busy_[graph.task(id).nvp] = true;
  for (const auto& list : candidates_by_nvp(graph, state, ctx.now_in_period_s,
                                            off_plan_, scratch_)) {
    if (list.empty()) continue;
    const std::size_t head = list.front();
    if (nvp_busy_[graph.task(head).nvp]) continue;
    if (committed_w + graph.task(head).power_w <= direct_budget_w) {
      chosen.push_back(head);
      committed_w += graph.task(head).power_w;
      nvp_busy_[graph.task(head).nvp] = true;
    }
  }
  return chosen;
}

}  // namespace solsched::sched
