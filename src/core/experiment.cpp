#include "core/experiment.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <stdexcept>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "sched/registry.hpp"
#include "util/thread_pool.hpp"

namespace solsched::core {
namespace {

ComparisonRow run_one(const task::TaskGraph& graph,
                      const solar::SolarTrace& trace,
                      const nvp::NodeConfig& node, nvp::Scheduler& policy,
                      std::string id, std::string name, bool record_events,
                      const fault::FaultInjector* faults = nullptr) {
  ComparisonRow row;
  row.id = std::move(id);
  row.algo = std::move(name);
  // Span names are dynamic (one per policy row), so the ScopedSpan is built
  // only when obs is on — the string allocation never hits the disabled path.
  std::optional<obs::ScopedSpan> span;
  if (obs::enabled()) span.emplace("experiment.row." + row.id);
  if (record_events) row.events = std::make_shared<obs::SimTrace>();
  row.sim = nvp::simulate(graph, trace, policy, node, row.events.get(), faults);
  row.dmr = row.sim.overall_dmr();
  row.energy_utilization = row.sim.energy_utilization();
  row.migration_efficiency = row.sim.migration_efficiency();
  row.brownouts = row.sim.total_brownouts();
  OBS_COUNTER_ADD("experiment.rows", 1);
  return row;
}

/// The best *single* capacitor for the storage-oblivious baselines: the one
/// closest to the mean of the per-day sizing optima, or the largest when no
/// sizing data exists. Shared by run_comparison and run_resilience_sweep so
/// both put the baselines on identical hardware.
nvp::NodeConfig single_cap_baseline(const nvp::NodeConfig& effective,
                                    const TrainedController* trained) {
  nvp::NodeConfig baseline_node = effective;
  std::size_t single = 0;
  if (trained && !trained->sizing.daily_optimal_f.empty()) {
    double mean = 0.0;
    for (double c : trained->sizing.daily_optimal_f) mean += c;
    mean /= static_cast<double>(trained->sizing.daily_optimal_f.size());
    double best_d = std::numeric_limits<double>::max();
    for (std::size_t i = 0; i < baseline_node.capacities_f.size(); ++i) {
      const double d = std::fabs(baseline_node.capacities_f[i] - mean);
      if (d < best_d) {
        best_d = d;
        single = i;
      }
    }
  } else {
    for (std::size_t i = 1; i < baseline_node.capacities_f.size(); ++i)
      if (baseline_node.capacities_f[i] >
          baseline_node.capacities_f[single])
        single = i;
  }
  baseline_node.initial_cap = single;
  return baseline_node;
}

/// The scheduler-facing slice of a comparison: everything a registry
/// factory may need, assembled once per (run, intensity). The dp cache
/// defaults to the pipeline's period-option cache so the Optimal row hits
/// on nearly every period of the shared trace.
sched::SchedulerContext make_context(const TrainedController* trained,
                                     sched::OptimalConfig dp,
                                     const fault::FaultInjector* faults) {
  sched::SchedulerContext ctx;
  ctx.dp = std::move(dp);
  ctx.faults = faults;
  if (trained) {
    ctx.model = &trained->model;
    ctx.online = trained->online;
    if (!ctx.dp.shared_cache) ctx.dp.shared_cache = trained->option_cache;
  }
  return ctx;
}

/// One job per listed registry entry, in registration order (the row order
/// contract of ComparisonConfig::scheduler_ids). Unknown ids throw before
/// any job runs; entries needing a controller are skipped when untrained.
/// `ctx`, the nodes, graph and trace are captured by reference and must
/// outlive the returned jobs.
std::vector<std::function<ComparisonRow()>> registry_jobs(
    const task::TaskGraph& graph, const solar::SolarTrace& trace,
    const nvp::NodeConfig& effective, const nvp::NodeConfig& baseline_node,
    const std::vector<std::string>& ids, const sched::SchedulerContext& ctx,
    bool has_controller, bool record_events) {
  const sched::Registry& registry = sched::Registry::global();
  for (const std::string& id : ids) (void)registry.at(id);  // Validate all.

  std::vector<std::function<ComparisonRow()>> jobs;
  for (const sched::SchedulerInfo& info : registry.entries()) {
    if (std::find(ids.begin(), ids.end(), info.id) == ids.end()) continue;
    if (info.needs_controller && !has_controller) continue;
    const nvp::NodeConfig& node = info.sized_bank ? effective : baseline_node;
    jobs.push_back([&graph, &trace, &node, &info, &ctx, record_events] {
      auto policy = info.factory(ctx);
      return run_one(graph, trace, node, *policy, info.id, policy->name(),
                     record_events, ctx.faults);
    });
  }
  return jobs;
}

bool lists(const std::vector<std::string>& ids, const char* id) {
  return std::find(ids.begin(), ids.end(), id) != ids.end();
}

}  // namespace

std::vector<ComparisonRow> run_comparison(const task::TaskGraph& graph,
                                          const solar::SolarTrace& trace,
                                          const nvp::NodeConfig& node,
                                          const TrainedController* trained,
                                          const ComparisonConfig& config) {
  // All policies run on the same storage hardware: the sized bank when a
  // trained controller is supplied.
  const nvp::NodeConfig& effective = trained ? trained->node : node;

  // The single-storage baselines ([3], [9], ASAP, EDF, the energy-aware
  // zoo) never re-select capacitors: they assume one super capacitor fixed
  // at design time. They get the best *single* choice our sizing flow
  // would make — the mean of the per-day optima (the H = 1 cluster) — on
  // the same physical bank. Without sizing data they fall back to the
  // largest capacitor. Registry entries with `sized_bank` (proposed,
  // optimal) run on the full sized bank instead.
  const nvp::NodeConfig baseline_node = single_cap_baseline(effective, trained);

  // Policy rows are independent simulations: one registry-built factory
  // per listed id, run on the thread pool into pre-sized slots, returned
  // in registration order — identical rows at any thread count.
  const sched::SchedulerContext ctx =
      make_context(trained, config.dp, config.faults);
  const std::vector<std::function<ComparisonRow()>> row_jobs =
      registry_jobs(graph, trace, effective, baseline_node,
                    config.scheduler_ids, ctx, trained != nullptr,
                    config.record_events);

  std::vector<ComparisonRow> rows(row_jobs.size());
  util::parallel_for(row_jobs.size(),
                     [&](std::size_t i) { rows[i] = row_jobs[i](); });
  return rows;
}

const ComparisonRow& row_of(const std::vector<ComparisonRow>& rows,
                            const std::string& id) {
  std::string present;
  for (const auto& row : rows) {
    if (row.id == id) return row;
    if (!present.empty()) present += ", ";
    present += row.id;
  }
  throw std::out_of_range("row_of: no row with id \"" + id +
                          "\" (rows: " + (present.empty() ? "none" : present) +
                          "; registry ids: " +
                          sched::Registry::global().known_ids() + ")");
}

std::vector<ResiliencePoint> run_resilience_sweep(
    const task::TaskGraph& graph, const solar::SolarTrace& trace,
    const nvp::NodeConfig& node, const TrainedController* trained,
    const ResilienceConfig& config) {
  const nvp::NodeConfig& effective = trained ? trained->node : node;
  const nvp::NodeConfig baseline_node = single_cap_baseline(effective, trained);
  nvp::NodeConfig volatile_node = effective;
  volatile_node.volatile_baseline = true;

  // One injector per intensity, built serially up front: construction
  // consumes all the plan's randomness, so the tables are fixed before any
  // row runs and can be shared read-only across the pool.
  std::vector<std::unique_ptr<fault::FaultInjector>> injectors;
  injectors.reserve(config.intensities.size());
  for (double intensity : config.intensities)
    injectors.push_back(std::make_unique<fault::FaultInjector>(
        config.plan.scaled(intensity), trace.grid()));

  // One scheduler context per intensity (the injectors differ), in stable
  // storage: the jobs capture them by reference.
  std::vector<sched::SchedulerContext> contexts;
  contexts.reserve(config.intensities.size());
  for (std::size_t i = 0; i < config.intensities.size(); ++i)
    contexts.push_back(
        make_context(trained, sched::OptimalConfig{}, injectors[i].get()));

  const bool with_volatile =
      trained && lists(config.scheduler_ids, "proposed");

  // Flatten (intensity x policy) into one job list so the pool sees every
  // simulation at once; a row's own parallel regions (the Optimal row's DP)
  // nest under its job and share the pool.
  struct Job {
    std::size_t point;
    std::function<ComparisonRow()> run;
  };
  std::vector<Job> jobs;
  for (std::size_t i = 0; i < config.intensities.size(); ++i) {
    const sched::SchedulerContext& ctx = contexts[i];
    for (auto& run :
         registry_jobs(graph, trace, effective, baseline_node,
                       config.scheduler_ids, ctx, trained != nullptr,
                       config.record_events))
      jobs.push_back({i, std::move(run)});
    if (with_volatile)
      jobs.push_back({i, [&graph, &trace, &volatile_node, &ctx, &config] {
                        auto policy = sched::make_scheduler("proposed", ctx);
                        return run_one(graph, trace, volatile_node, *policy,
                                       "proposed_volatile",
                                       "Proposed (volatile)",
                                       config.record_events, ctx.faults);
                      }});
  }

  std::vector<ComparisonRow> flat(jobs.size());
  util::parallel_for(jobs.size(),
                     [&](std::size_t i) { flat[i] = jobs[i].run(); });

  std::vector<ResiliencePoint> points(config.intensities.size());
  for (std::size_t i = 0; i < points.size(); ++i)
    points[i].intensity = config.intensities[i];
  for (std::size_t i = 0; i < jobs.size(); ++i)
    points[jobs[i].point].rows.push_back(std::move(flat[i]));
  return points;
}

}  // namespace solsched::core
