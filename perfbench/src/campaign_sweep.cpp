// campaign_sweep: warm-cache campaign::run_campaign over a 192-shard grid —
// WAM, ECG and SHM x 32 evaluation seeds x fault intensities {0, 1} under
// blackout=2,dropout=0.02 — with nine non-DP policies per shard. Set-up
// trains the three controllers cold; every timed sweep then runs into a
// fresh campaign directory against the filled artifact cache.
//
// Why: it runs nvp::simulate, the nine policies, fault injection and
// fsync'd journal appends, and no DP or training work, so a change that
// speeds the DP but slows the slot loop shows here. It is also the
// write-heavy path that the durable-file work must not slow.
//
// The traced replay re-runs the 192 shards serially through the public
// calls (trace generation, fault injector, one simulate per row, journal
// append on a throwaway journal) and its ShardRecord::to_json lines must be
// byte-equal to the journal run_campaign wrote. It also alternates obs-on
// and obs-off sweeps to measure the telemetry overhead.
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "campaign/artifact_cache.hpp"
#include "campaign/journal.hpp"
#include "campaign/runner.hpp"
#include "campaign/spec.hpp"
#include "fault/fault_injector.hpp"
#include "nvp/node_sim.hpp"
#include "obs/metrics.hpp"
#include "sched/registry.hpp"
#include "workloads.hpp"

namespace solsched::perfbench {
namespace {

constexpr int kWarmupSweeps = 2;
constexpr int kTelemetryPairs = 10;

/// 192 shards (12 in a smoke run: 2 evaluation seeds instead of 32).
campaign::CampaignSpec make_spec(const RunOptions& opts) {
  const std::uint64_t seed = opts.seed;
  return campaign::CampaignSpec::parse(
      "workloads=wam,ecg,shm;seeds=" + std::to_string(seed) + ".." +
      std::to_string(seed + (opts.smoke ? 1 : 31)) +
      ";intensities=0,1;fault=blackout=2,dropout=0.02;"
      "schedulers=inter,intra,edf,asap,duty,ccedf,laedf,greedy,proposed;"
      "days=1;train_seed=" + std::to_string(seed));
}

struct Sweep {
  campaign::CampaignResult result;
  double ms = 0.0;
  std::string journal;  ///< Record lines, sorted by shard.
};

/// The journal's record lines as written (header dropped), sorted by shard.
/// Read as text: Journal::load parses numbers through double, which does not
/// round-trip 64-bit artifact keys.
std::string journal_lines(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);  // Header.
  std::vector<std::pair<std::size_t, std::string>> records;
  const std::string prefix = "{\"shard\": ";
  while (std::getline(in, line)) {
    if (line.rfind(prefix, 0) != 0)
      throw std::runtime_error("journal line without a shard: " + line);
    records.emplace_back(std::stoul(line.substr(prefix.size())), line);
  }
  std::sort(records.begin(), records.end());
  std::string out;
  for (const auto& [shard, text] : records) out += text + "\n";
  return out;
}

/// One sweep into a fresh `dir`; only run_campaign is timed.
Sweep sweep(const campaign::CampaignSpec& spec, const std::string& dir,
            const std::string& cache_dir) {
  std::filesystem::remove_all(dir);
  campaign::CampaignConfig config;
  config.spec = spec;
  config.dir = dir;
  config.cache_dir = cache_dir;
  Sweep s;
  const auto t0 = Clock::now();
  s.result = campaign::run_campaign(config);
  s.ms = ms_between(t0, Clock::now());
  s.journal = journal_lines(dir + "/journal.jsonl");
  return s;
}

void check_sweep(const Sweep& s, const std::string& reference,
                 WorkloadResult& r) {
  r.attempted += s.result.total_shards;
  const std::size_t missing = s.result.total_shards - s.result.executed;
  r.failed += missing;
  r.check(s.result.trainings == 0, "warm_sweep_trained");
  r.check(missing > 0 || s.journal == reference, "journal_bytes",
          "sweep journal differs from the reference sweep");
}

/// Layer counters of one replayed sweep besides its spans.
struct ReplayCounts {
  double periods = 0.0;
  double journal_bytes = 0.0;
};

/// The 192 shards, serially, through the public calls run_campaign makes.
/// `warm` supplies the artifact provenance fields the journal records.
std::string replay(const campaign::CampaignSpec& spec,
                   const std::string& cache_dir,
                   const std::vector<campaign::ShardRecord>& warm,
                   const std::string& journal_path, bool traced,
                   ReplayCounts* counts) {
  // Controllers, one per workload, loaded from the cache like run_campaign.
  std::map<std::string, const campaign::ShardRecord*> provenance;
  for (const campaign::ShardRecord& rec : warm)
    provenance.emplace(rec.workload, &rec);
  const campaign::ArtifactCache cache(cache_dir);
  std::map<std::string, core::TrainedController> controllers;
  for (const auto& [workload, rec] : provenance) {
    const std::uint64_t t = obs::now_us();
    if (!cache.load(rec->artifact_key, &controllers[workload]))
      throw std::runtime_error("replay: artifact missing for " + workload);
    end_span("campaign.artifact_cache.load", t);
  }

  std::filesystem::remove(journal_path);
  campaign::Journal journal(journal_path, spec.digest());
  core::PipelineConfig pipeline;
  if (spec.dp_buckets > 0) pipeline.dp.energy_buckets = spec.dp_buckets;
  const fault::FaultPlan base_plan = spec.fault_plan();
  std::string lines;
  for (const campaign::Scenario& scenario : spec.expand()) {
    const task::TaskGraph graph =
        campaign::CampaignSpec::workload_graph(scenario.workload);
    std::uint64_t t = obs::now_us();
    const solar::SolarTrace trace =
        spec.generator(scenario.seed)
            .generate_days(spec.eval_days, spec.grid(1), spec.eval_day0);
    end_span("solar.generate_days", t);

    t = obs::now_us();
    const fault::FaultPlan plan = base_plan.scaled(scenario.intensity);
    std::unique_ptr<fault::FaultInjector> injector;
    if (plan.any())
      injector = std::make_unique<fault::FaultInjector>(plan, trace.grid());
    end_span("fault.injector", t);

    const core::TrainedController& tc = controllers.at(scenario.workload);
    const campaign::ShardRecord& source = *provenance.at(scenario.workload);
    sched::SchedulerContext ctx;
    ctx.dp = pipeline.dp;
    ctx.faults = injector.get();
    ctx.model = &tc.model;
    ctx.online = tc.online;
    if (!ctx.dp.shared_cache) ctx.dp.shared_cache = tc.option_cache;
    const nvp::NodeConfig baseline =
        single_cap_node(tc.node, tc.sizing.daily_optimal_f);

    campaign::ShardRecord record;
    record.shard = scenario.shard;
    record.key = scenario.key();
    record.workload = scenario.workload;
    record.seed = scenario.seed;
    record.intensity = scenario.intensity;
    record.artifact_key = source.artifact_key;
    record.artifact_hit = source.artifact_hit;
    record.controller_fingerprint = source.controller_fingerprint;
    for (const sched::SchedulerInfo& info :
         sched::Registry::global().entries()) {
      if (!spec.has_scheduler(info.id)) continue;
      std::unique_ptr<nvp::Scheduler> policy = info.factory(ctx);
      TimedScheduler timed(*policy);
      t = obs::now_us();
      const nvp::SimResult sim = nvp::simulate(
          graph, trace, traced ? static_cast<nvp::Scheduler&>(timed) : *policy,
          info.sized_bank ? tc.node : baseline, nullptr, injector.get());
      if (traced)
        end_simulate_spans(t, timed, "nvp.simulate", "sched.dp.solve",
                           "sched." + info.id + ".decide");
      counts->periods += static_cast<double>(sim.periods.size());
      campaign::ShardRow row;
      row.algo = policy->name();
      row.dmr = sim.overall_dmr();
      row.energy_utilization = sim.energy_utilization();
      row.migration_efficiency = sim.migration_efficiency();
      row.brownouts = sim.total_brownouts();
      row.solar_j = sim.total_solar_j();
      row.served_j = sim.total_served_j();
      row.loss_j = sim.total_loss_j();
      row.power_failure_slots = sim.total_power_failure_slots();
      row.fallbacks = sim.total_fallbacks();
      record.rows.push_back(std::move(row));
    }

    t = obs::now_us();
    journal.append(record);
    end_span("campaign.journal.append", t);
    lines += record.to_json() + "\n";
  }
  counts->journal_bytes +=
      static_cast<double>(std::filesystem::file_size(journal_path));
  return lines;
}

WorkloadResult measure(const RunOptions& opts) {
  WorkloadResult r;
  const campaign::CampaignSpec spec = make_spec(opts);
  const std::string cache = opts.work_dir + "/cache";
  const double setup_s = median_setup_s(opts, [&] {
    std::filesystem::remove_all(cache);
    const Sweep cold = sweep(spec, opts.work_dir + "/cold", cache);
    r.check(cold.result.finished && cold.result.trainings == 3,
            "cold_sweep", "did not train 3 controllers and finish");
  });
  // Cold and warm journals differ in artifact_hit, so the first warm-up
  // sweep is the reference every timed sweep must reproduce.
  std::string reference;
  for (int i = 0; i < (opts.smoke ? 1 : kWarmupSweeps); ++i) {
    const Sweep s = sweep(spec, opts.work_dir + "/warm", cache);
    if (i == 0) reference = s.journal;
    check_sweep(s, reference, r);
  }
  r.digest = fnv1a_hex(reference);

  reset_peak_rss();
  std::vector<double> ms;
  double shards = 0.0;
  const auto start = Clock::now();
  while (seconds_between(start, Clock::now()) < opts.seconds) {
    const Sweep s = sweep(spec, opts.work_dir + "/warm", cache);
    ms.push_back(s.ms);
    shards += static_cast<double>(s.result.executed);
    check_sweep(s, reference, r);
  }
  double total_ms = 0.0;
  for (double m : ms) total_ms += m;

  r.metric("setup_s", setup_s);
  r.metric("throughput", 1e3 * shards / total_ms);
  r.metric("latency_p50_ms", quantile(ms, 0.5));
  r.metric("latency_p90_ms", quantile(ms, 0.9));
  r.metric("peak_rss_mb", peak_rss_mb());
  r.note("sweeps", static_cast<double>(ms.size()));
  r.note("shards_per_min", 6e4 * shards / total_ms);
  r.note("latency_q1_ms", quantile(ms, 0.25));
  r.note("latency_q3_ms", quantile(ms, 0.75));
  return r;
}

WorkloadResult traced(const RunOptions& opts) {
  WorkloadResult r;
  const campaign::CampaignSpec spec = make_spec(opts);
  const std::string cache = opts.work_dir + "/cache";
  const Sweep cold = sweep(spec, opts.work_dir + "/cold", cache);
  r.check(cold.result.finished && cold.result.trainings == 3, "cold_sweep",
          "did not train 3 controllers and finish");
  const Sweep warm = sweep(spec, opts.work_dir + "/warm", cache);
  check_sweep(warm, warm.journal, r);
  r.digest = fnv1a_hex(warm.journal);

  // One untraced and one traced replay of the whole sweep.
  const std::string journal = opts.work_dir + "/replay.jsonl";
  ReplayCounts plain_counts, counts;
  SpanTrace spans(opts.trace_path);
  spans.record(false);
  auto t0 = Clock::now();
  const std::string plain =
      replay(spec, cache, warm.result.records, journal, false, &plain_counts);
  const double plain_ms = ms_between(t0, Clock::now());
  spans.record(true);
  t0 = Clock::now();
  const std::string lines =
      replay(spec, cache, warm.result.records, journal, true, &counts);
  const double wall_us = 1e3 * ms_between(t0, Clock::now());
  const obs::analysis::SpanProfile profile = spans.finish();
  r.attempted += 2 * warm.result.total_shards;
  r.check(plain == warm.journal, "replay_bit_exact",
          "replayed journal lines differ from run_campaign's");
  r.check(lines == warm.journal, "traced_replay_bit_exact",
          "replayed journal lines differ from run_campaign's");

  // Telemetry overhead: obs-on sweeps (bus, watchdog, status.json)
  // alternating with obs-off sweeps, the order flipped every pair.
  std::vector<double> ratios;
  double failed_shards = 0.0;
  for (int pair = 0; pair < (opts.smoke ? 1 : kTelemetryPairs); ++pair) {
    double on_ms = 0.0, off_ms = 0.0;
    for (const bool on : {pair % 2 == 0, pair % 2 != 0}) {
      obs::set_enabled(on);
      const Sweep s = sweep(spec, opts.work_dir + "/telemetry", cache);
      obs::set_enabled(false);
      (on ? on_ms : off_ms) = s.ms;
      failed_shards +=
          static_cast<double>(s.result.total_shards - s.result.executed);
      check_sweep(s, warm.journal, r);
    }
    ratios.push_back(on_ms / off_ms - 1.0);
  }

  const auto ms_of = [&](const std::string& name) {
    return self_us(profile, name) / 1e3;
  };
  const double coverage = static_cast<double>(profile.accounted_us) / wall_us;
  r.check(coverage >= 0.95, "trace_coverage",
          std::to_string(coverage) + " < 0.95");
  r.metric("solar.generate_days.ms", ms_of("solar.generate_days"));
  r.metric("fault.injector.ms", ms_of("fault.injector"));
  r.metric("nvp.simulate.self.ms", ms_of("nvp.simulate"));
  r.metric("nvp.periods", counts.periods);
  for (const std::string& id : spec.schedulers)
    r.metric("sched." + id + ".decide.ms", ms_of("sched." + id + ".decide"));
  r.metric("campaign.journal.append.ms", ms_of("campaign.journal.append"));
  r.metric("campaign.journal.bytes", counts.journal_bytes);
  r.metric("campaign.artifact_cache.load.ms",
           ms_of("campaign.artifact_cache.load"));
  r.metric("campaign.failed_shards", failed_shards);
  r.metric("obs.telemetry_overhead_ratio", quantile(ratios, 0.5));
  r.metric("obs.telemetry_overhead_ratio.q1", quantile(ratios, 0.25));
  r.metric("obs.telemetry_overhead_ratio.q3", quantile(ratios, 0.75));
  r.metric("core.other.ms",
           (wall_us - static_cast<double>(profile.accounted_us)) / 1e3);
  r.metric("trace.coverage", coverage);
  r.metric("trace.overhead_ratio", wall_us / 1e3 / plain_ms - 1.0);
  r.note("telemetry_pairs", static_cast<double>(ratios.size()));
  return r;
}

}  // namespace

WorkloadResult run_campaign_sweep(const RunOptions& opts) {
  return opts.trace ? traced(opts) : measure(opts);
}

}  // namespace solsched::perfbench
