// solsched_benchmark: one workload per process.
//
//   solsched_benchmark --workload W --seed N --seconds S --trace 0|1
//                      --work-dir DIR [--out FILE] [--expect-digest HEX]
//                      [--smoke 1]
//
// Prints a human-readable summary, then, as its last stdout line, one JSON
// object {"correct", "attempted", "failed", "digest", "metrics"} whose
// metric values are in the units BENCHMARK.json lists (perfbench/run.py
// attaches the units). --out writes the same facts plus provenance (CPU
// count, thread counts, SIMD dispatch, build manifest) and the sample
// counts and quartiles behind each metric. Exits 1 when any operation
// failed or any correctness check did not hold, naming the workload and
// the checks on stderr; 2 on a usage error.
#include <sched.h>

#include <algorithm>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <string>

#include "ann/kernels/kernels.hpp"
#include "obs/analysis/json_mini.hpp"
#include "obs/analysis/manifest.hpp"
#include "obs/metrics.hpp"
#include "util/cli.hpp"
#include "util/thread_pool.hpp"
#include "workloads.hpp"

using namespace solsched;
using namespace solsched::perfbench;

namespace {

std::size_t online_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return std::max(1, CPU_COUNT(&set));
}

std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string metrics_object(
    const std::vector<std::pair<std::string, double>>& values) {
  std::string out = "{";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i) out += ", ";
    out += '"';
    out += obs::analysis::json_escape(values[i].first);
    out += "\": ";
    out += number(values[i].second);
  }
  out += '}';
  return out;
}

std::string result_file(const std::string& workload, const RunOptions& opts,
                        const WorkloadResult& r) {
  obs::analysis::ManifestInfo manifest;
  manifest.workload = workload;
  manifest.seeds = {opts.seed};
  std::string checks = "[";
  for (std::size_t i = 0; i < r.failed_checks.size(); ++i)
    checks += (i ? ", \"" : "\"") +
              obs::analysis::json_escape(r.failed_checks[i]) + "\"";
  checks += "]";
  std::string out = "{\n";
  out += "  \"workload\": \"" + workload + "\",\n";
  out += "  \"seed\": " + std::to_string(opts.seed) + ",\n";
  out += "  \"seconds\": " + number(opts.seconds) + ",\n";
  out += "  \"trace\": " + std::string(opts.trace ? "true" : "false") + ",\n";
  out += "  \"smoke\": " + std::string(opts.smoke ? "true" : "false") + ",\n";
  out += "  \"correct\": " + std::string(r.failed == 0 ? "true" : "false") +
         ",\n";
  out += "  \"attempted\": " + std::to_string(r.attempted) + ",\n";
  out += "  \"failed\": " + std::to_string(r.failed) + ",\n";
  out += "  \"failed_checks\": " + checks + ",\n";
  out += "  \"digest\": \"" + r.digest + "\",\n";
  out += "  \"metrics\": " + metrics_object(r.metrics) + ",\n";
  out += "  \"info\": " + metrics_object(r.info) + ",\n";
  out += "  \"provenance\": {\"nproc\": " + std::to_string(opts.nproc) +
         ", \"pool_threads\": " + std::to_string(opts.pool_threads) +
         ", \"generator_threads\": " + std::to_string(r.generator_threads) +
         ", \"simd\": \"" + ann::kernels::arch_name() +
         "\", \"manifest\": " + obs::analysis::manifest_json(manifest) + "}\n";
  return out + "}\n";
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli;
  cli.add_flag("workload", "", "offline_pipeline|campaign_sweep|serve_hot|"
                               "serve_mixed");
  cli.add_flag("seed", "2015", "input seed");
  cli.add_flag("seconds", "20", "length of the measured phase");
  cli.add_flag("trace", "0", "1 = traced replay, per-layer metrics");
  cli.add_flag("work-dir", "", "work directory (created, then removed)");
  cli.add_flag("out", "", "result file to write");
  cli.add_flag("expect-digest", "", "reference decision digest",
               util::Cli::FlagType::kString);
  cli.add_flag("smoke", "0", "1 = smallest inputs, for the smoke test");
  if (!cli.parse(argc, argv) || cli.help_requested()) {
    std::fprintf(stderr, "%s\n", cli.error().c_str());
    return 2;
  }

  const std::map<std::string, std::function<WorkloadResult(const RunOptions&)>>
      runners = {
          {"offline_pipeline", run_offline_pipeline},
          {"campaign_sweep", run_campaign_sweep},
          {"serve_hot", [](const RunOptions& o) { return run_serve(o, false); }},
          {"serve_mixed", [](const RunOptions& o) { return run_serve(o, true); }},
      };
  const std::string workload = cli.get("workload");
  const auto runner = runners.find(workload);
  if (runner == runners.end()) {
    std::fprintf(stderr, "unknown workload '%s'\n", workload.c_str());
    return 2;
  }
  RunOptions opts;
  opts.seed = cli.get_seed("seed");
  opts.seconds = cli.get_double("seconds");
  opts.trace = cli.get_int("trace") != 0;
  opts.work_dir = cli.get("work-dir");
  opts.expect_digest = cli.get("expect-digest");
  opts.smoke = cli.get_int("smoke") != 0;
  const std::string out = cli.get("out");
  opts.trace_path = out.empty() ? opts.work_dir + "/spans.trace.json"
                                : out.substr(0, out.rfind(".json")) + ".trace.json";
  opts.nproc = online_cpus();
  opts.pool_threads = std::min<std::size_t>(opts.nproc, 4);
  if (opts.work_dir.empty() || opts.seconds <= 0.0) {
    std::fprintf(stderr, "--work-dir is required and --seconds must be > 0\n");
    return 2;
  }

  // Timed paths run with observability off (SOLSCHED_OBS unset); the
  // workloads that measure it switch it on themselves.
  obs::set_enabled(false);
  util::ThreadPool::set_global_threads(opts.pool_threads);
  std::filesystem::remove_all(opts.work_dir);
  std::filesystem::create_directories(opts.work_dir);

  WorkloadResult result;
  try {
    result = runner->second(opts);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: aborted: %s\n", workload.c_str(), e.what());
    std::filesystem::remove_all(opts.work_dir);
    return 1;
  }
  std::filesystem::remove_all(opts.work_dir);

  if (!opts.expect_digest.empty())
    result.check(result.digest == opts.expect_digest, "reference_digest",
                 "got " + result.digest + ", expected " + opts.expect_digest);

  std::printf("workload %s  seed %llu  %s  nproc %zu  pool %zu  simd %s\n",
              workload.c_str(), static_cast<unsigned long long>(opts.seed),
              opts.trace ? "traced" : "untraced", opts.nproc, opts.pool_threads,
              ann::kernels::arch_name());
  for (const auto& [name, value] : result.metrics)
    std::printf("  %-44s %.6g\n", name.c_str(), value);
  std::printf("  digest %s  attempted %llu  failed %llu\n",
              result.digest.c_str(),
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed));

  if (!out.empty()) {
    std::ofstream file(out);
    file << result_file(workload, opts, result);
    if (!file) {
      std::fprintf(stderr, "cannot write %s\n", out.c_str());
      return 1;
    }
  }

  const bool correct = result.failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"digest\": \"%s\", \"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed),
              result.digest.c_str(), metrics_object(result.metrics).c_str());
  std::fflush(stdout);
  if (!correct) {
    for (const std::string& check : result.failed_checks)
      std::fprintf(stderr, "%s: check failed: %s\n", workload.c_str(),
                   check.c_str());
    std::fprintf(stderr, "%s: %llu of %llu operations failed\n",
                 workload.c_str(),
                 static_cast<unsigned long long>(result.failed),
                 static_cast<unsigned long long>(result.attempted));
    return 1;
  }
  return 0;
}
