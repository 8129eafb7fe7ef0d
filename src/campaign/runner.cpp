#include "campaign/runner.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <set>
#include <stdexcept>

#include "ann/dbn.hpp"
#include "campaign/artifact_cache.hpp"
#include "core/experiment.hpp"
#include "fault/fault_injector.hpp"
#include "obs/analysis/manifest.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "obs/telemetry.hpp"
#include "sched/registry.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace solsched::campaign {
namespace {

/// Offline pipeline knobs derived from the spec. Shared between training
/// and the Optimal comparison row so the period-option caches agree.
core::PipelineConfig pipeline_config(const CampaignSpec& spec) {
  core::PipelineConfig config;
  config.n_caps = spec.n_caps;
  if (spec.dp_buckets > 0) config.dp.energy_buckets = spec.dp_buckets;
  if (spec.pretrain_epochs > 0)
    config.dbn.pretrain.epochs = spec.pretrain_epochs;
  if (spec.finetune_epochs > 0)
    config.dbn.finetune.epochs = spec.finetune_epochs;
  return config;
}

/// Content address of the offline artifact a workload's scenarios share:
/// the PR-4 NodeConfig digest (grid + physics) extended with the workload
/// and every knob the trained controller depends on. Scenarios that differ
/// only in evaluation axes (seed, intensity, schedulers) collide here by
/// construction — that collision *is* the dedup.
std::uint64_t artifact_key_of(const CampaignSpec& spec,
                              const nvp::NodeConfig& node,
                              const std::string& workload) {
  char node_digest[32];
  std::snprintf(node_digest, sizeof(node_digest), "%016llx",
                static_cast<unsigned long long>(
                    obs::analysis::node_config_digest(node)));
  std::string canon = "solsched-artifact-v1;";
  canon += "node=" + std::string(node_digest) + ";";
  canon += "workload=" + workload + ";";
  canon += "train_seed=" + std::to_string(spec.train_seed) + ";";
  canon += "train_days=" + std::to_string(spec.train_days) + ";";
  canon += "n_caps=" + std::to_string(spec.n_caps) + ";";
  canon += "dp_buckets=" + std::to_string(spec.dp_buckets) + ";";
  canon += "pretrain_epochs=" + std::to_string(spec.pretrain_epochs) + ";";
  canon += "finetune_epochs=" + std::to_string(spec.finetune_epochs);
  std::uint64_t h = 14695981039346656037ULL;
  for (unsigned char c : canon) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

ShardRow row_from(const core::ComparisonRow& row) {
  ShardRow out;
  out.algo = row.algo;
  out.dmr = row.dmr;
  out.energy_utilization = row.energy_utilization;
  out.migration_efficiency = row.migration_efficiency;
  out.brownouts = row.brownouts;
  out.solar_j = row.sim.total_solar_j();
  out.served_j = row.sim.total_served_j();
  out.loss_j = row.sim.total_loss_j();
  out.power_failure_slots = row.sim.total_power_failure_slots();
  out.fallbacks = row.sim.total_fallbacks();
  return out;
}

/// One trained (or cache-loaded) controller plus its provenance.
struct Artifact {
  std::uint64_t key = 0;
  bool disk_hit = false;
  std::uint64_t fingerprint = 0;
  std::shared_ptr<core::TrainedController> controller;
};

/// Decision fingerprint of a trained controller: a deterministic probe
/// batch (util::Rng seeded from the artifact key) is mapped into raw input
/// space through the normalizer's inverse, normalized back, and pushed
/// through Dbn::predict_batch in one batched pass; the outputs' bit
/// patterns are FNV-1a folded. The value is bit-identical across SIMD and
/// scalar builds (kernel-layer contract) and across cache-hit and freshly
/// trained artifacts, so journals from different builds of the same spec
/// can be diffed on it directly.
std::uint64_t fingerprint_controller(const core::TrainedController& tc,
                                     std::uint64_t key) {
  const sched::ProposedModel& model = tc.model;
  if (!model.dbn) return 0;
  constexpr std::size_t kProbes = 32;
  const std::size_t d = model.dbn->n_inputs();
  util::Rng rng(key ^ 0xC0FFEE5EEDULL);
  std::vector<ann::Vector> batch;
  batch.reserve(kProbes);
  for (std::size_t s = 0; s < kProbes; ++s) {
    ann::Vector u(d);
    for (double& v : u) v = rng.uniform();
    if (model.input_norm.fitted())
      u = model.input_norm.transform(model.input_norm.inverse(u));
    batch.push_back(std::move(u));
  }
  const std::vector<ann::Vector> outs = model.dbn->predict_batch(batch);
  std::uint64_t h = 14695981039346656037ULL;
  for (const ann::Vector& y : outs)
    for (double v : y) {
      std::uint64_t bits = 0;
      static_assert(sizeof(bits) == sizeof(v));
      std::memcpy(&bits, &v, sizeof(bits));
      for (std::size_t byte = 0; byte < sizeof(bits); ++byte) {
        h ^= (bits >> (8 * byte)) & 0xFFu;
        h *= 1099511628211ULL;
      }
    }
  return h;
}

}  // namespace

CampaignResult run_campaign(const CampaignConfig& config) {
  OBS_SPAN("campaign.run");
  const CampaignSpec& spec = config.spec;
  if (config.dir.empty())
    throw std::invalid_argument("run_campaign: empty campaign directory");

  std::error_code ec;
  std::filesystem::create_directories(config.dir, ec);
  if (ec)
    throw std::runtime_error("run_campaign: cannot create " + config.dir +
                             ": " + ec.message());

  const std::string journal_path = config.dir + "/journal.jsonl";
  const std::uint64_t spec_digest = spec.digest();

  CampaignResult result;
  const std::vector<Scenario> scenarios = spec.expand();
  result.total_shards = scenarios.size();
  OBS_GAUGE_SET("campaign.shards.total", scenarios.size());

  // ---- Recovery: completed shards are whatever the journal acknowledges. --
  std::set<std::size_t> done;
  if (std::filesystem::exists(journal_path)) {
    Journal::Recovered recovered = Journal::load(journal_path, spec_digest);
    for (const ShardRecord& rec : recovered.records) {
      if (rec.shard >= scenarios.size())
        throw std::runtime_error("run_campaign: journal shard " +
                                 std::to_string(rec.shard) +
                                 " outside the grid");
      done.insert(rec.shard);
    }
    result.records = std::move(recovered.records);
  }
  result.resumed = done.size();
  OBS_COUNTER_ADD("campaign.shards.resumed", result.resumed);

  std::vector<Scenario> remaining;
  for (const Scenario& s : scenarios)
    if (done.find(s.shard) == done.end()) remaining.push_back(s);

  Journal journal(journal_path, spec_digest);

  nvp::NodeConfig node;
  node.grid = spec.grid(1);

  // ---- Live telemetry (DESIGN.md §15). -----------------------------------
  // The bus exists only when observability is on, so with SOLSCHED_OBS
  // unset every publish site below is a single null-pointer branch and the
  // journal/aggregate bytes cannot depend on the telemetry layer.
  std::unique_ptr<obs::TelemetryBus> bus;
  std::string node_digest_hex;
  if (obs::enabled()) {
    char digest[32];
    std::snprintf(digest, sizeof(digest), "%016llx",
                  static_cast<unsigned long long>(spec_digest));
    obs::TelemetryBus::Options opt;
    opt.dir = config.dir;
    opt.spec_digest = digest;
    opt.heartbeat_ms = config.telemetry_heartbeat_ms;
    opt.stall_ms = config.telemetry_stall_ms;
    opt.threads = util::ThreadPool::global().size();
    bus = std::make_unique<obs::TelemetryBus>(std::move(opt));
    std::map<std::string, std::size_t> workload_total;
    std::map<std::string, std::size_t> workload_done;
    for (const Scenario& s : scenarios) {
      ++workload_total[s.workload];
      workload_done.emplace(s.workload, 0);
      if (done.find(s.shard) != done.end()) ++workload_done[s.workload];
    }
    bus->campaign_start(scenarios.size(), workload_total, workload_done);
    char nd[32];
    std::snprintf(nd, sizeof(nd), "%016llx",
                  static_cast<unsigned long long>(
                      obs::analysis::node_config_digest(node)));
    node_digest_hex = nd;
  }

  // ---- Offline artifacts: one per workload, content-addressed. -----------
  // Trained one workload at a time (train_pipeline's own parallel regions
  // already spread over the pool) and normalized through the
  // serialize/deserialize round trip even on the train path, so a scenario's
  // rows never depend on whether its controller came from cache or from
  // this process (see artifact_cache.hpp).
  // Train only when the axis lists a policy that actually needs a
  // controller (registry metadata, not a hard-coded name check).
  const bool needs_controller = std::any_of(
      spec.schedulers.begin(), spec.schedulers.end(),
      [](const std::string& id) {
        return sched::Registry::global().at(id).needs_controller;
      });
  std::map<std::string, Artifact> artifacts;
  if (needs_controller && !remaining.empty()) {
    OBS_SPAN("campaign.train");
    ArtifactCache cache(config.cache_dir.empty() ? config.dir + "/cache"
                                                 : config.cache_dir);
    const core::PipelineConfig pcfg = pipeline_config(spec);
    std::set<std::string> needed;
    for (const Scenario& s : remaining) needed.insert(s.workload);
    for (const std::string& workload : needed) {
      Artifact artifact;
      artifact.key = artifact_key_of(spec, node, workload);
      auto controller = std::make_shared<core::TrainedController>();
      if (cache.load(artifact.key, controller.get())) {
        artifact.disk_hit = true;
        OBS_COUNTER_ADD("campaign.artifact_cache.disk_hits", 1);
        if (bus) bus->train_cache_hit(workload);
      } else {
        OBS_COUNTER_ADD("campaign.artifact_cache.disk_misses", 1);
        if (bus) bus->train_start(workload);
        const task::TaskGraph graph = CampaignSpec::workload_graph(workload);
        const solar::SolarTrace training =
            spec.generator(spec.train_seed)
                .generate_days(spec.train_days, spec.grid(1),
                               solar::DayKind::kPartlyCloudy);
        cache.store(artifact.key,
                    core::train_pipeline(graph, training, node, pcfg));
        ++result.trainings;
        OBS_COUNTER_ADD("campaign.train.runs", 1);
        if (!cache.load(artifact.key, controller.get()))
          throw std::runtime_error(
              "run_campaign: freshly stored artifact unreadable: " +
              cache.path_of(artifact.key));
      }
      artifact.controller = std::move(controller);
      artifact.fingerprint =
          fingerprint_controller(*artifact.controller, artifact.key);
      artifacts.emplace(workload, std::move(artifact));
    }
    result.artifact_disk_hits =
        static_cast<std::size_t>(std::count_if(
            artifacts.begin(), artifacts.end(),
            [](const auto& kv) { return kv.second.disk_hit; }));
  }

  // ---- Shard execution: dynamic claiming over the pool. ------------------
  const fault::FaultPlan base_plan = spec.fault_plan();
  core::ComparisonConfig cmp_template;
  cmp_template.scheduler_ids = spec.schedulers;
  cmp_template.dp = pipeline_config(spec).dp;

  std::vector<ShardRecord> fresh(remaining.size());
  std::vector<char> executed(remaining.size(), 0);
  std::atomic<std::size_t> completed{0};
  std::atomic<bool> stop{false};

  util::parallel_for(remaining.size(), [&](std::size_t i) {
    if (stop.load(std::memory_order_relaxed)) return;
    OBS_SPAN("campaign.shard");
    const Scenario& scenario = remaining[i];
    if (bus)
      bus->shard_claimed(scenario.shard, scenario.workload, node_digest_hex);
    const task::TaskGraph graph =
        CampaignSpec::workload_graph(scenario.workload);
    const solar::SolarTrace trace =
        spec.generator(scenario.seed)
            .generate_days(spec.eval_days, spec.grid(1), spec.eval_day0);

    const fault::FaultPlan plan = base_plan.scaled(scenario.intensity);
    std::unique_ptr<fault::FaultInjector> injector;
    if (plan.any())
      injector = std::make_unique<fault::FaultInjector>(plan, trace.grid());

    core::ComparisonConfig cmp = cmp_template;
    cmp.faults = injector.get();
    const core::TrainedController* trained = nullptr;
    ShardRecord record;
    const auto artifact = artifacts.find(scenario.workload);
    if (artifact != artifacts.end()) {
      trained = artifact->second.controller.get();
      record.artifact_key = artifact->second.key;
      record.artifact_hit = artifact->second.disk_hit;
      record.controller_fingerprint = artifact->second.fingerprint;
    }

    if (bus) bus->sim_start(scenario.shard);
    if (config.shard_hook) config.shard_hook(scenario.shard);

    std::vector<core::ComparisonRow> rows;
    try {
      rows = core::run_comparison(graph, trace, node, trained, cmp);
    } catch (const std::exception& e) {
      if (bus) bus->shard_failed(scenario.shard, e.what());
      throw;
    }

    record.shard = scenario.shard;
    record.key = scenario.key();
    record.workload = scenario.workload;
    record.seed = scenario.seed;
    record.intensity = scenario.intensity;
    for (const core::ComparisonRow& row : rows)
      record.rows.push_back(row_from(row));

    journal.append(record);
    OBS_COUNTER_ADD("campaign.journal.appends", 1);
    OBS_COUNTER_ADD("campaign.shards.executed", 1);
    if (record.artifact_hit) OBS_COUNTER_ADD("campaign.artifact_cache.hits", 1);
    if (bus) bus->shard_done(scenario.shard, record.artifact_hit);
    fresh[i] = std::move(record);
    executed[i] = 1;
    const std::size_t n = completed.fetch_add(1, std::memory_order_acq_rel) + 1;
    // A mid-flight kill, deterministically: shards already in flight finish
    // and journal (exactly as real in-flight work may), nothing new starts.
    if (config.stop_after > 0 && n >= config.stop_after)
      stop.store(true, std::memory_order_relaxed);
  });

  for (std::size_t i = 0; i < fresh.size(); ++i) {
    if (!executed[i]) continue;
    ++result.executed;
    if (fresh[i].artifact_hit) ++result.artifact_hits;
    result.records.push_back(std::move(fresh[i]));
  }
  std::sort(result.records.begin(), result.records.end(),
            [](const ShardRecord& a, const ShardRecord& b) {
              return a.shard < b.shard;
            });
  result.finished = result.records.size() == result.total_shards;
  if (bus) bus->campaign_finish(result.finished);
  return result;
}

}  // namespace solsched::campaign
