#include "campaign/runner.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <mutex>
#include <set>
#include <stdexcept>

#include "ann/dbn.hpp"
#include "campaign/artifact_cache.hpp"
#include "core/controller_io.hpp"
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

/// One workload's controller plus its provenance. A cache hit is complete
/// before any job starts. For a miss, the job that fits it writes
/// `fingerprint` and `controller` once and then publishes them through
/// `ready` (release); a shard reads them only after an acquire load has
/// seen it set, or after the job set has joined.
struct Artifact {
  std::uint64_t key = 0;
  bool disk_hit = false;
  std::uint64_t fingerprint = 0;
  std::shared_ptr<core::TrainedController> controller;
  std::atomic<bool> ready{false};
  /// Misses only: the node the controller-free rows run on, controller-less,
  /// while the training is in flight — the sized node as the cache round
  /// trip rebuilds it (core::deployed_node). Without a sizing table the
  /// baselines pick the largest capacitor, exactly as with the reloaded
  /// controller, so those rows equal a warm run's.
  nvp::NodeConfig early_node;
};

/// One cache miss: sized before the job set starts, labelled by the DP
/// oracle on the training lane, then fitted by whichever job is free.
struct Training {
  Artifact* artifact = nullptr;
  task::TaskGraph graph;
  solar::SolarTrace trace;
  core::SizedNode sized;
  core::TrainedController controller;  ///< run_oracle's, then fit_dbn's.
  std::vector<ann::Sample> samples;    ///< run_oracle's labels.
};

/// A shard's inputs. They are a pure function of its scenario, so a
/// deferred shard regenerates them instead of holding them.
struct ShardInputs {
  task::TaskGraph graph;
  solar::SolarTrace trace;
  std::unique_ptr<fault::FaultInjector> injector;
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
  // Every controller is normalized through the serialize/deserialize round
  // trip, even on the train path, so a scenario's rows never depend on
  // whether its controller came from cache or from this process (see
  // artifact_cache.hpp). Train only when the axis lists a policy that
  // actually needs a controller (registry metadata, not a name check).
  const sched::Registry& registry = sched::Registry::global();
  std::vector<std::string> free_ids, controller_ids;
  for (const std::string& id : spec.schedulers)
    (registry.at(id).needs_controller ? controller_ids : free_ids)
        .push_back(id);
  // Row order of a full comparison (registration order): whether each row
  // comes from the controller-free or the controller half of a split shard.
  std::vector<bool> row_needs_controller;
  for (const sched::SchedulerInfo& info : registry.entries())
    if (spec.has_scheduler(info.id))
      row_needs_controller.push_back(info.needs_controller);

  const core::PipelineConfig pcfg = pipeline_config(spec);
  std::map<std::string, Artifact> artifacts;
  std::vector<Training> trainings;
  std::unique_ptr<ArtifactCache> cache;
  if (!controller_ids.empty() && !remaining.empty()) {
    OBS_SPAN("campaign.train");
    cache = std::make_unique<ArtifactCache>(
        config.cache_dir.empty() ? config.dir + "/cache" : config.cache_dir);
    // In grid order, so the first shards' controllers are trained first.
    for (const Scenario& s : remaining) {
      const std::string& workload = s.workload;
      if (artifacts.count(workload)) continue;
      Artifact& artifact = artifacts[workload];
      artifact.key = artifact_key_of(spec, node, workload);
      auto controller = std::make_shared<core::TrainedController>();
      if (cache->load(artifact.key, controller.get())) {
        artifact.disk_hit = true;
        artifact.fingerprint =
            fingerprint_controller(*controller, artifact.key);
        artifact.controller = std::move(controller);
        ++result.artifact_disk_hits;
        OBS_COUNTER_ADD("campaign.artifact_cache.disk_hits", 1);
        if (bus) bus->train_cache_hit(workload);
        continue;
      }
      OBS_COUNTER_ADD("campaign.artifact_cache.disk_misses", 1);
      if (bus) bus->train_start(workload);
      // Step 1 of the offline flow runs here, serially (milliseconds): the
      // sized bank is what the controller-free rows need to start now.
      Training training;
      training.artifact = &artifact;
      training.graph = CampaignSpec::workload_graph(workload);
      training.trace = spec.generator(spec.train_seed)
                           .generate_days(spec.train_days, spec.grid(1),
                                          solar::DayKind::kPartlyCloudy);
      training.sized =
          core::size_node(training.graph, training.trace, node, pcfg);
      artifact.early_node = core::deployed_node(training.sized.node);
      trainings.push_back(std::move(training));
    }
    result.trainings = trainings.size();
  }

  // Step 2 of one cache miss, on the training lane: the DP oracle, its
  // regions nested on the pool. The bundle drops the LUT and option cache,
  // and the fit does not read them, so they go at once: at most one DP's
  // worth is alive at a time.
  auto label = [&](Training& training) {
    OBS_SPAN("campaign.train");
    training.controller =
        core::run_oracle(training.graph, training.trace,
                         std::move(training.sized), pcfg, &training.samples);
    training.controller.lut = sched::Lut();
    training.controller.option_cache.reset();
  };

  // Step 3, store and reload of one labelled miss, on whichever job takes
  // it; then the controller is published to the shards.
  auto fit = [&](Training& training) {
    OBS_SPAN("campaign.train");
    Artifact& artifact = *training.artifact;
    core::fit_dbn(training.graph, training.trace, std::move(training.samples),
                  pcfg, &training.controller);
    cache->store(artifact.key, training.controller);
    training.controller = core::TrainedController();
    OBS_COUNTER_ADD("campaign.train.runs", 1);
    auto controller = std::make_shared<core::TrainedController>();
    if (!cache->load(artifact.key, controller.get()))
      throw std::runtime_error(
          "run_campaign: freshly stored artifact unreadable: " +
          cache->path_of(artifact.key));
    artifact.fingerprint = fingerprint_controller(*controller, artifact.key);
    artifact.controller = std::move(controller);
    artifact.ready.store(true, std::memory_order_release);
  };

  // ---- Shard execution: dynamic claiming over the pool. ------------------
  const fault::FaultPlan base_plan = spec.fault_plan();
  core::ComparisonConfig cmp_template;
  cmp_template.scheduler_ids = spec.schedulers;
  cmp_template.dp = pcfg.dp;

  std::vector<ShardRecord> fresh(remaining.size());
  std::vector<char> executed(remaining.size(), 0);
  // Work that waits on the training lane, done by whichever job is free
  // first: labelled trainings to fit, and deferred shards — which keep only
  // their finished controller-free rows — to finish once their controller
  // is published. A slot is written before its index is listed (under the
  // mutex), and read after the index is taken off the list.
  std::vector<std::vector<ShardRow>> parked(remaining.size());
  std::mutex pending_mutex;
  std::vector<std::size_t> fits;      // Training indices.
  std::vector<std::size_t> deferred;  // Shard indices.
  std::atomic<std::size_t> completed{0};
  std::atomic<bool> stop{false};

  auto inputs_of = [&](const Scenario& scenario) {
    ShardInputs in;
    in.graph = CampaignSpec::workload_graph(scenario.workload);
    in.trace = spec.generator(scenario.seed)
                   .generate_days(spec.eval_days, spec.grid(1),
                                  spec.eval_day0);
    const fault::FaultPlan plan = base_plan.scaled(scenario.intensity);
    if (plan.any())
      in.injector = std::make_unique<fault::FaultInjector>(plan,
                                                           in.trace.grid());
    return in;
  };

  auto rows_of = [&](const ShardInputs& in, const nvp::NodeConfig& on,
                     const core::TrainedController* tc,
                     const std::vector<std::string>& ids) {
    core::ComparisonConfig cmp = cmp_template;
    cmp.faults = in.injector.get();
    cmp.scheduler_ids = ids;
    std::vector<ShardRow> rows;
    for (const core::ComparisonRow& row :
         core::run_comparison(in.graph, in.trace, on, tc, cmp))
      rows.push_back(row_from(row));
    return rows;
  };

  // Journals a finished shard. A mid-flight kill, deterministically:
  // shards already in flight finish and journal (exactly as real in-flight
  // work may), nothing new starts.
  auto complete = [&](std::size_t i, std::vector<ShardRow> rows) {
    const Scenario& scenario = remaining[i];
    ShardRecord record;
    record.shard = scenario.shard;
    record.key = scenario.key();
    record.workload = scenario.workload;
    record.seed = scenario.seed;
    record.intensity = scenario.intensity;
    if (const auto it = artifacts.find(scenario.workload);
        it != artifacts.end()) {
      record.artifact_key = it->second.key;
      record.artifact_hit = it->second.disk_hit;
      record.controller_fingerprint = it->second.fingerprint;
    }
    record.rows = std::move(rows);
    journal.append(record);
    OBS_COUNTER_ADD("campaign.journal.appends", 1);
    OBS_COUNTER_ADD("campaign.shards.executed", 1);
    if (record.artifact_hit) OBS_COUNTER_ADD("campaign.artifact_cache.hits", 1);
    if (bus) bus->shard_done(scenario.shard, record.artifact_hit);
    fresh[i] = std::move(record);
    executed[i] = 1;
    const std::size_t n = completed.fetch_add(1, std::memory_order_acq_rel) + 1;
    if (config.stop_after > 0 && n >= config.stop_after)
      stop.store(true, std::memory_order_relaxed);
  };

  // Merges a split shard's two halves back into registration order.
  auto merge = [&](std::vector<ShardRow> free_rows,
                   std::vector<ShardRow> controller_rows) {
    std::vector<ShardRow> rows;
    rows.reserve(row_needs_controller.size());
    auto f = free_rows.begin();
    auto c = controller_rows.begin();
    for (bool needs : row_needs_controller)
      rows.push_back(std::move(needs ? *c++ : *f++));
    return rows;
  };

  // Finishes a deferred shard: its inputs again, its controller rows, the
  // merge, the journal.
  auto finish_deferred = [&](std::size_t i) {
    OBS_SPAN("campaign.shard");
    const Scenario& scenario = remaining[i];
    if (bus) bus->shard_parked(scenario.shard, false);
    try {
      const ShardInputs in = inputs_of(scenario);
      complete(i, merge(std::move(parked[i]),
                        rows_of(in, node,
                                artifacts.at(scenario.workload)
                                    .controller.get(),
                                controller_ids)));
    } catch (const std::exception& e) {
      if (bus) bus->shard_failed(scenario.shard, e.what());
      throw;
    }
  };

  // Does pending work until none is ready: fits first (they unblock
  // shards), then deferred shards whose controller has landed — the latter
  // not after a stop, since a deferred shard is not in flight.
  auto drain = [&] {
    for (;;) {
      Training* training = nullptr;
      std::size_t shard = 0;
      bool have_shard = false;
      {
        std::lock_guard<std::mutex> lock(pending_mutex);
        if (!fits.empty()) {
          training = &trainings[fits.front()];
          fits.erase(fits.begin());
        } else if (!stop.load(std::memory_order_relaxed)) {
          for (auto it = deferred.begin(); it != deferred.end(); ++it)
            if (artifacts.at(remaining[*it].workload)
                    .ready.load(std::memory_order_acquire)) {
              shard = *it;
              have_shard = true;
              deferred.erase(it);
              break;
            }
        }
      }
      if (training)
        fit(*training);
      else if (have_shard)
        finish_deferred(shard);
      else
        return;
    }
  };

  // A shard whose controller was a cache hit (or needs none) runs every row
  // in one comparison, as warm sweeps always do. A shard whose controller
  // is trained in this run splits: its controller-free rows run at once on
  // the early node; its controller rows run as soon as the reloaded
  // controller is published — right away if it already is, else it is
  // deferred. Every shard job ends by draining the pending work.
  auto run_shard = [&](std::size_t i) {
    if (stop.load(std::memory_order_relaxed)) return;
    {
      OBS_SPAN("campaign.shard");
      const Scenario& scenario = remaining[i];
      if (bus)
        bus->shard_claimed(scenario.shard, scenario.workload, node_digest_hex);
      const ShardInputs in = inputs_of(scenario);
      const auto found = artifacts.find(scenario.workload);
      Artifact* artifact =
          found == artifacts.end() ? nullptr : &found->second;

      if (bus) bus->sim_start(scenario.shard);
      if (config.shard_hook) config.shard_hook(scenario.shard);

      try {
        if (!artifact || artifact->disk_hit) {
          complete(i, rows_of(in, node,
                              artifact ? artifact->controller.get() : nullptr,
                              spec.schedulers));
        } else {
          std::vector<ShardRow> free_rows =
              rows_of(in, artifact->early_node, nullptr, free_ids);
          if (artifact->ready.load(std::memory_order_acquire)) {
            complete(i, merge(std::move(free_rows),
                              rows_of(in, node, artifact->controller.get(),
                                      controller_ids)));
          } else {
            parked[i] = std::move(free_rows);
            if (bus) bus->shard_parked(scenario.shard, true);
            std::lock_guard<std::mutex> lock(pending_mutex);
            deferred.push_back(i);
          }
        }
      } catch (const std::exception& e) {
        if (bus) bus->shard_failed(scenario.shard, e.what());
        throw;
      }
    }
    drain();
  };

  // One job set. Job 0 is the training lane: the DP oracle of every cache
  // miss in turn, each handed on for fitting as soon as it is labelled,
  // then the lane drains like any job. Every other job is a shard. The
  // oracles run one at a time because concurrent trainings held one DP
  // option cache each at once, and the heap they left behind raised the
  // peak RSS of every later warm sweep in the process by ~15% (4-core
  // host); the fits (serial SGD, the longer step) run side by side.
  const std::size_t lanes = trainings.empty() ? 0 : 1;
  util::parallel_for(lanes + remaining.size(), [&](std::size_t i) {
    if (i >= lanes) return run_shard(i - lanes);
    for (std::size_t t = 0; t < trainings.size(); ++t) {
      label(trainings[t]);
      std::lock_guard<std::mutex> lock(pending_mutex);
      fits.push_back(t);
    }
    drain();
  });

  // Follow-up pass: every training has landed; finish the deferred shards
  // still waiting. After a stop they stay unjournaled and are recomputed on
  // resume.
  if (!stop.load(std::memory_order_relaxed))
    util::parallel_for(deferred.size(), [&](std::size_t w) {
      if (!stop.load(std::memory_order_relaxed)) finish_deferred(deferred[w]);
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
