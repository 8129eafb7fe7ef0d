// offline_pipeline: the paper's offline flow on WAM at paper scale (144
// periods x 20 slots x 30 s, 4 capacitors, default PipelineConfig). One
// iteration is core::train_pipeline on a 2-day training trace (partly-cloudy
// start) plus core::run_comparison with the rows inter, intra, proposed and
// optimal on a held-out 2-day trace from the next seed. Iterations cycle
// through 16 such climates derived from the run's seed.
//
// Why: DP/pareto_options and DBN training do most of the work here and
// almost none in the other workloads. The held-out trace makes the Optimal
// row solve a real DP instead of riding the oracle's period-option cache.
//
// The traced replay re-runs one iteration through the public calls in the
// order train_pipeline and run_comparison make them, and must reproduce the
// capacities, oracle DMR, training MSE and every row's DMR bit for bit.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "core/pipeline.hpp"
#include "nvp/node_sim.hpp"
#include "sched/registry.hpp"
#include "task/benchmarks.hpp"
#include "util/mathx.hpp"
#include "workloads.hpp"

namespace solsched::perfbench {
namespace {

/// Climates per run. One iteration's cost varies by almost 2x with the
/// climate (the DP's option counts and cache hits follow the weather), so a
/// run cycles through many and its percentiles do not hinge on one seed.
constexpr std::size_t kInstances = 16;
const std::vector<std::string> kRows = {"inter", "intra", "proposed",
                                        "optimal"};

struct Inputs {
  task::TaskGraph graph;
  solar::SolarTrace train;
  solar::SolarTrace heldout;
  nvp::NodeConfig node;
  core::PipelineConfig config;
};

Inputs make_inputs(std::uint64_t seed) {
  return {task::wam_benchmark(), paper_trace(seed), paper_trace(seed + 1),
          paper_node(), paper_pipeline()};
}

/// Everything an iteration decides, rendered with %.17g so that equal text
/// means bit-equal doubles.
struct Decisions {
  double oracle_dmr = 0.0;
  double train_mse = 0.0;
  std::vector<double> capacities_f;
  std::vector<std::pair<std::string, double>> row_dmr;

  std::string text() const {
    char buf[64];
    std::string out;
    const auto add = [&](const std::string& key, double v) {
      std::snprintf(buf, sizeof(buf), "%.17g", v);
      out += key + "=" + buf + ";";
    };
    add("oracle_dmr", oracle_dmr);
    add("train_mse", train_mse);
    for (double c : capacities_f) add("cap", c);
    for (const auto& [id, dmr] : row_dmr) add(id, dmr);
    return out;
  }
};

Decisions iterate(const Inputs& in) {
  const core::TrainedController trained =
      core::train_pipeline(in.graph, in.train, in.node, in.config);
  core::ComparisonConfig cmp;
  cmp.scheduler_ids = kRows;
  cmp.dp = in.config.dp;
  const auto rows =
      core::run_comparison(in.graph, in.heldout, in.node, &trained, cmp);
  Decisions d;
  d.oracle_dmr = trained.oracle_dmr;
  d.train_mse = trained.train_mse;
  d.capacities_f = trained.node.capacities_f;
  for (const core::ComparisonRow& row : rows) d.row_dmr.emplace_back(row.id, row.dmr);
  return d;
}

/// Bench-side twin of the pipeline's oracle sample recorder, built on the
/// public ProposedScheduler::build_input and OptimalScheduler::plan().
class SampleRecorder final : public nvp::Scheduler {
 public:
  SampleRecorder(sched::OptimalScheduler& oracle, std::size_t n_slots,
                 std::size_t n_caps, std::size_t n_tasks, double alpha_cap)
      : oracle_(&oracle),
        n_slots_(n_slots),
        n_caps_(n_caps),
        n_tasks_(n_tasks),
        alpha_cap_(alpha_cap) {}

  std::string name() const override { return "SampleRecorder"; }
  void begin_trace(const task::TaskGraph& graph, const nvp::NodeConfig& config,
                   const solar::SolarTrace& trace) override {
    oracle_->begin_trace(graph, config, trace);
  }
  nvp::PeriodPlan begin_period(const nvp::PeriodContext& ctx) override {
    const ann::Vector x = sched::ProposedScheduler::build_input(ctx, n_slots_);
    const nvp::PeriodPlan plan = oracle_->begin_period(ctx);
    const sched::PlannedPeriod& planned =
        oracle_->plan().at(ctx.grid->flat_period(ctx.day, ctx.period));
    ann::Vector y(n_caps_ + 1 + n_tasks_, 0.0);
    y[planned.cap_index] = 1.0;
    y[n_caps_] = util::clamp(planned.alpha / alpha_cap_, 0.0, 1.0);
    for (std::size_t n = 0; n < n_tasks_; ++n)
      y[n_caps_ + 1 + n] = planned.te.empty() || planned.te[n] ? 1.0 : 0.0;
    samples.push_back(ann::Sample{x, y});
    return plan;
  }
  std::vector<std::size_t> schedule_slot(const nvp::SlotContext& ctx) override {
    return oracle_->schedule_slot(ctx);
  }

  std::vector<ann::Sample> samples;

 private:
  sched::OptimalScheduler* oracle_;
  std::size_t n_slots_;
  std::size_t n_caps_;
  std::size_t n_tasks_;
  double alpha_cap_;
};

/// Counters the replay collects besides its spans.
struct ReplayCounts {
  double dp_evaluations = 0.0;
  double cache_hits = 0.0;
  double cache_misses = 0.0;
  double samples = 0.0;
  double periods = 0.0;
};

/// One iteration through the public calls, serially. With `traced`, every
/// policy runs under a TimedScheduler and each layer call leaves a span.
Decisions replay(const Inputs& in, bool traced, ReplayCounts* counts) {
  const core::PipelineConfig& config = in.config;
  Decisions d;

  // Sizing.
  std::uint64_t t = obs::now_us();
  sizing::SizingConfig sizing_cfg = config.sizing;
  sizing_cfg.v_low = in.node.v_low;
  sizing_cfg.v_high = in.node.v_high;
  sizing_cfg.pmu = in.node.pmu;
  sizing_cfg.regulators = in.node.regulators;
  sizing_cfg.leakage = in.node.leakage;
  const sizing::SizingResult sizing = sizing::size_capacitors(
      in.graph, in.train, config.n_caps, sizing_cfg);
  end_span("sizing.size_capacitors", t);
  nvp::NodeConfig node = in.node;
  node.capacities_f = sizing.capacities_f;
  node.initial_cap = 0;
  d.capacities_f = node.capacities_f;

  // DP oracle over the training trace, recording labelled samples.
  const std::size_t n_slots = in.train.grid().n_slots;
  const std::size_t n_caps = node.capacities_f.size();
  const double alpha_cap = 3.0;
  sched::OptimalConfig dp_cfg = config.dp;
  if (dp_cfg.use_option_cache && !dp_cfg.shared_cache)
    dp_cfg.shared_cache = std::make_shared<sched::PeriodOptionCache>();
  sched::OptimalScheduler oracle(dp_cfg);
  SampleRecorder recorder(oracle, n_slots, n_caps, in.graph.size(), alpha_cap);
  TimedScheduler timed_oracle(recorder);
  t = obs::now_us();
  const nvp::SimResult oracle_run = nvp::simulate(
      in.graph, in.train,
      traced ? static_cast<nvp::Scheduler&>(timed_oracle) : recorder, node);
  if (traced)  // Apart from the Optimal row's sched.optimal.decide.
    end_simulate_spans(t, timed_oracle, "nvp.simulate", "sched.dp.solve",
                       "sched.oracle.decide");
  d.oracle_dmr = oracle_run.overall_dmr();
  counts->dp_evaluations += static_cast<double>(oracle.dp_evaluations());
  counts->periods += static_cast<double>(oracle_run.periods.size());
  counts->samples += static_cast<double>(recorder.samples.size());

  // DBN: normalizer over physical ranges, then pretrain + fine-tune.
  t = obs::now_us();
  const std::size_t n_in = n_slots + n_caps + 1;
  ann::Vector mins(n_in, 0.0), maxs(n_in, 1.0);
  const double solar_max = std::max(1e-6, in.train.peak_power_w());
  for (std::size_t m = 0; m < n_slots; ++m) maxs[m] = solar_max;
  for (std::size_t h = 0; h < n_caps; ++h) maxs[n_slots + h] = in.node.v_high;
  ann::Normalizer norm;
  norm.set_ranges(std::move(mins), std::move(maxs));
  std::vector<ann::Sample> samples = std::move(recorder.samples);
  for (ann::Sample& s : samples) s.x = norm.transform(s.x);
  auto dbn = std::make_shared<ann::Dbn>(n_in, n_caps + 1 + in.graph.size(),
                                        config.dbn);
  d.train_mse = dbn->train(samples).finetune_loss;
  end_span("ann.dbn.train", t);

  sched::ProposedModel model;
  model.dbn = std::move(dbn);
  model.input_norm = std::move(norm);
  model.capacities_f = node.capacities_f;
  model.n_slots = n_slots;
  model.n_tasks = in.graph.size();
  model.alpha_cap = alpha_cap;

  // Comparison rows on the held-out trace, in registration order.
  sched::SchedulerContext ctx;
  ctx.dp = config.dp;
  ctx.model = &model;
  ctx.online = config.online;
  if (!ctx.dp.shared_cache) ctx.dp.shared_cache = dp_cfg.shared_cache;
  const nvp::NodeConfig baseline =
      single_cap_node(node, sizing.daily_optimal_f);
  for (const sched::SchedulerInfo& info : sched::Registry::global().entries()) {
    if (std::find(kRows.begin(), kRows.end(), info.id) == kRows.end()) continue;
    std::unique_ptr<nvp::Scheduler> policy = info.factory(ctx);
    TimedScheduler timed(*policy);
    t = obs::now_us();
    const nvp::SimResult sim = nvp::simulate(
        in.graph, in.heldout, traced ? static_cast<nvp::Scheduler&>(timed) : *policy,
        info.sized_bank ? node : baseline);
    if (traced)
      end_simulate_spans(t, timed, "nvp.simulate", "sched.dp.solve",
                         "sched." + info.id + ".decide");
    d.row_dmr.emplace_back(info.id, sim.overall_dmr());
    counts->periods += static_cast<double>(sim.periods.size());
    if (const auto* opt = dynamic_cast<const sched::OptimalScheduler*>(policy.get()))
      counts->dp_evaluations += static_cast<double>(opt->dp_evaluations());
  }
  // Oracle and Optimal row share one option cache; its counters are totals.
  const sched::OptionCacheStats stats = ctx.dp.shared_cache
                                            ? ctx.dp.shared_cache->stats()
                                            : sched::OptionCacheStats{};
  counts->cache_hits += static_cast<double>(stats.hits);
  counts->cache_misses += static_cast<double>(stats.misses);
  return d;
}

/// The run's climates: instance k trains on seed * kInstances * 2 + 2k and
/// is compared on the next seed. A smoke run takes instance 0 alone.
std::vector<Inputs> make_instances(const RunOptions& opts) {
  std::vector<Inputs> instances;
  for (std::uint64_t k = 0; k < (opts.smoke ? 1 : kInstances); ++k)
    instances.push_back(make_inputs(opts.seed * kInstances * 2 + 2 * k));
  return instances;
}

/// Decision digest over every instance's decisions, in instance order.
std::string digest_of(const std::vector<std::string>& texts) {
  std::string all;
  for (const std::string& text : texts) all += text + "\n";
  return fnv1a_hex(all);
}

WorkloadResult measure(const RunOptions& opts) {
  WorkloadResult r;
  std::vector<Inputs> instances;
  const double setup_s = median_setup_s(opts, [&] {
    instances = make_instances(opts);
    (void)iterate(instances[0]);  // Warm-up: allocators, lazy tables.
  });

  // Whole passes over the instances, so each weighs the same in the
  // percentiles; the first pass records each instance's decisions, later
  // passes must reproduce them.
  reset_peak_rss();
  std::vector<std::string> reference(instances.size());
  std::vector<double> ms;
  const auto start = Clock::now();
  for (std::size_t i = 0;
       i % instances.size() != 0 || i == 0 ||
       seconds_between(start, Clock::now()) < opts.seconds;
       ++i) {
    const std::size_t k = i % instances.size();
    ++r.attempted;
    const auto t0 = Clock::now();
    try {
      const std::string text = iterate(instances[k]).text();
      ms.push_back(ms_between(t0, Clock::now()));
      if (reference[k].empty()) reference[k] = text;
      r.check(text == reference[k], "iteration_decisions",
              "instance " + std::to_string(k) + " differs between passes");
    } catch (const std::exception& e) {
      r.check(false, "iteration_threw", e.what());
    }
  }
  const double elapsed = seconds_between(start, Clock::now());
  r.digest = digest_of(reference);

  r.metric("setup_s", setup_s);
  r.metric("throughput", static_cast<double>(ms.size()) / elapsed);
  r.metric("latency_p50_ms", quantile(ms, 0.5));
  r.metric("latency_p90_ms", quantile(ms, 0.9));
  r.metric("peak_rss_mb", peak_rss_mb());
  r.note("samples", static_cast<double>(ms.size()));
  r.note("latency_q1_ms", quantile(ms, 0.25));
  r.note("latency_q3_ms", quantile(ms, 0.75));
  return r;
}

WorkloadResult traced(const RunOptions& opts) {
  WorkloadResult r;
  const std::vector<Inputs> instances = make_instances(opts);
  std::vector<std::string> reference;
  for (const Inputs& in : instances) reference.push_back(iterate(in).text());
  r.digest = digest_of(reference);

  // Per instance, in turn: an untraced and a traced replay back to back,
  // so drift hits both alike; the overhead is the median paired ratio.
  ReplayCounts counts, untraced_counts;
  std::vector<double> traced_ms, overhead;
  SpanTrace spans(opts.trace_path);
  const auto start = Clock::now();
  for (std::size_t i = 0;
       i == 0 || seconds_between(start, Clock::now()) < opts.seconds; ++i) {
    const std::size_t k = i % instances.size();
    const Inputs& in = instances[k];
    double pair_ms[2] = {0.0, 0.0};
    for (const bool with_spans : {false, true}) {
      spans.record(with_spans);
      const auto t0 = Clock::now();
      const Decisions d =
          replay(in, with_spans, with_spans ? &counts : &untraced_counts);
      pair_ms[with_spans] = ms_between(t0, Clock::now());
      ++r.attempted;
      r.check(d.text() == reference[k], "replay_bit_exact",
              d.text() + " vs " + reference[k]);
    }
    traced_ms.push_back(pair_ms[1]);
    overhead.push_back(pair_ms[1] / pair_ms[0] - 1.0);
  }
  double wall_us = 0.0;
  for (double ms : traced_ms) wall_us += 1e3 * ms;
  const obs::analysis::SpanProfile profile = spans.finish();

  const double n = static_cast<double>(traced_ms.size());
  const auto per_iter_ms = [&](const std::string& name) {
    return self_us(profile, name) / n / 1e3;
  };
  const double coverage = static_cast<double>(profile.accounted_us) / wall_us;
  r.check(coverage >= 0.95, "trace_coverage",
          std::to_string(coverage) + " < 0.95");
  r.metric("sizing.size_capacitors.ms", per_iter_ms("sizing.size_capacitors"));
  r.metric("sched.dp.solve.ms", per_iter_ms("sched.dp.solve"));
  r.metric("sched.dp.evaluations", counts.dp_evaluations / n);
  r.metric("sched.option_cache.hit_ratio",
           counts.cache_hits / std::max(1.0, counts.cache_hits + counts.cache_misses));
  r.metric("ann.dbn.train.ms", per_iter_ms("ann.dbn.train"));
  r.metric("ann.dbn.samples", counts.samples / n);
  r.metric("nvp.simulate.self.ms", per_iter_ms("nvp.simulate"));
  r.metric("nvp.periods", counts.periods / n);
  r.metric("sched.oracle.decide.ms", per_iter_ms("sched.oracle.decide"));
  for (const std::string& id : kRows)
    r.metric("sched." + id + ".decide.ms", per_iter_ms("sched." + id + ".decide"));
  r.metric("core.other.ms",
           (wall_us - static_cast<double>(profile.accounted_us)) / n / 1e3);
  r.metric("trace.coverage", coverage);
  r.metric("trace.overhead_ratio", quantile(overhead, 0.5));
  r.note("replays", n);
  return r;
}

}  // namespace

WorkloadResult run_offline_pipeline(const RunOptions& opts) {
  return opts.trace ? traced(opts) : measure(opts);
}

}  // namespace solsched::perfbench
