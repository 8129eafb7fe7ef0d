// solsched-campaign: sharded scenario sweeps with crash-safe resume
// (DESIGN.md §13/§15, README "Running a campaign" / "Watching a campaign").
//
//   solsched-campaign run    --spec "..." --dir out/         execute/resume
//   solsched-campaign report --journal out/journal.jsonl     aggregate table
//   solsched-campaign expand --spec "..."                    list the shards
//
// `solsched-inspect watch out/` is the live dashboard over the run's
// status.json.
//
// Exit-code contract (all subcommands):
//   0  success — run: campaign complete
//   1  failure — report/aggregate write failed
//   2  usage or spec error (bad flags, unreadable files, digest mismatch)
//   3  "resume me" — run: stopped before completion (--stop-after); rerun
//      `solsched-campaign run` with the same --dir to resume
#include <cstdio>
#include <exception>
#include <fstream>
#include <string>
#include <vector>

#include "campaign/report.hpp"
#include "campaign/runner.hpp"
#include "util/cli.hpp"
#include "util/durable.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace solsched;

int usage(std::FILE* out) {
  std::fprintf(out,
               "usage: solsched-campaign <run|report|expand> [--help]\n"
               "  run    --spec S|--spec-file F --dir D [--cache-dir C]\n"
               "         [--threads N] [--stop-after K] [--aggregate-out P]\n"
               "         [--report] [--heartbeat-ms MS] [--stall-after-ms MS]\n"
               "  report --journal J [--json] [--out P]\n"
               "  expand --spec S|--spec-file F\n"
               "\n"
               "run publishes live telemetry (<dir>/telemetry.jsonl +\n"
               "<dir>/status.json) when SOLSCHED_OBS is set;\n"
               "`solsched-inspect watch <dir>` renders the status snapshot.\n"
               "\n"
               "exit codes:\n"
               "  0  run: campaign complete\n"
               "  1  report or aggregate write failed\n"
               "  2  usage or spec error\n"
               "  3  resume me — run: stopped before completion\n"
               "     (--stop-after); rerun `run` with the same --dir\n");
  return out == stdout ? 0 : 2;
}

/// Spec files: one or more lines of the `key=value;...` grammar. Lines are
/// joined with ';'; blank lines and `#` comments are skipped.
std::string read_spec_file(const std::string& path) {
  std::ifstream file(path);
  if (!file) throw std::runtime_error("cannot open spec file " + path);
  std::string joined, line;
  while (std::getline(file, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty() || line[0] == '#') continue;
    if (!joined.empty()) joined += ';';
    joined += line;
  }
  return joined;
}

campaign::CampaignSpec spec_from(const util::Cli& cli) {
  const std::string inline_spec = cli.get("spec");
  const std::string file = cli.get("spec-file");
  if (inline_spec.empty() && file.empty())
    throw std::runtime_error("one of --spec or --spec-file is required");
  if (!inline_spec.empty() && !file.empty())
    throw std::runtime_error("--spec and --spec-file are exclusive");
  return campaign::CampaignSpec::parse(
      file.empty() ? inline_spec : read_spec_file(file));
}

void add_spec_flags(util::Cli& cli) {
  cli.add_flag("spec", "", "inline campaign spec (key=value;key=value)");
  cli.add_flag("spec-file", "", "file holding the spec (lines joined, # comments)");
}

int write_or_die(const std::string& path, const std::string& text) {
  try {
    util::write_atomic(path, text);
  } catch (const util::IoError& e) {
    std::fprintf(stderr, "solsched-campaign: cannot write %s\n", e.what());
    return 1;
  }
  return 0;
}

int cmd_run(int argc, const char* const* argv) {
  util::Cli cli;
  add_spec_flags(cli);
  cli.add_flag("dir", "", "campaign directory (journal, cache, aggregate)");
  cli.add_flag("cache-dir", "", "artifact cache override (default <dir>/cache)");
  cli.add_flag("threads", "0", "worker threads (0 = SOLSCHED_THREADS/auto)");
  cli.add_flag("stop-after", "0",
               "stop claiming shards after this many complete (0 = all)");
  cli.add_flag("aggregate-out", "",
               "aggregate JSON path (default <dir>/aggregate.json)");
  cli.add_flag("report", "false", "print the aggregate table on completion");
  cli.add_flag("heartbeat-ms", "1000",
               "telemetry heartbeat / status.json cadence (SOLSCHED_OBS)");
  cli.add_flag("stall-after-ms", "30000",
               "flag a shard as stalled after this quiet window");
  if (!cli.parse(argc, argv)) {
    std::fprintf(stderr, "solsched-campaign run: %s\n", cli.error().c_str());
    return 2;
  }
  if (cli.help_requested()) return usage(stdout);
  if (cli.get("dir").empty()) {
    std::fprintf(stderr, "solsched-campaign run: --dir is required\n");
    return 2;
  }

  campaign::CampaignConfig config;
  config.spec = spec_from(cli);
  config.dir = cli.get("dir");
  config.cache_dir = cli.get("cache-dir");
  config.stop_after = static_cast<std::size_t>(cli.get_int("stop-after"));
  config.telemetry_heartbeat_ms =
      static_cast<std::uint64_t>(cli.get_int("heartbeat-ms"));
  config.telemetry_stall_ms =
      static_cast<std::uint64_t>(cli.get_int("stall-after-ms"));
  const long long threads = cli.get_int("threads");
  if (threads > 0)
    util::ThreadPool::set_global_threads(static_cast<std::size_t>(threads));

  const campaign::CampaignResult result = campaign::run_campaign(config);
  std::fprintf(stderr,
               "solsched-campaign: %zu/%zu shards (%zu resumed, %zu executed),"
               " %zu trainings, %zu artifact hits\n",
               result.records.size(), result.total_shards, result.resumed,
               result.executed, result.trainings, result.artifact_hits);

  if (result.finished) {
    std::string path = cli.get("aggregate-out");
    if (path.empty()) path = config.dir + "/aggregate.json";
    const int rc =
        write_or_die(path, campaign::aggregate_json(result.records));
    if (rc != 0) return rc;
    if (cli.get_bool("report"))
      std::fputs(campaign::aggregate_table(result.records).c_str(), stdout);
    return 0;
  }
  std::fprintf(stderr,
               "solsched-campaign: stopped early; rerun with the same --dir "
               "to resume\n");
  return 3;
}

int cmd_report(int argc, const char* const* argv) {
  util::Cli cli;
  cli.add_flag("journal", "", "campaign journal (<dir>/journal.jsonl)");
  cli.add_flag("json", "false", "emit aggregate JSON instead of the table");
  cli.add_flag("out", "", "write to this path instead of stdout");
  if (!cli.parse(argc, argv)) {
    std::fprintf(stderr, "solsched-campaign report: %s\n", cli.error().c_str());
    return 2;
  }
  if (cli.help_requested()) return usage(stdout);
  if (cli.get("journal").empty()) {
    std::fprintf(stderr, "solsched-campaign report: --journal is required\n");
    return 2;
  }
  const std::vector<campaign::ShardRecord> records =
      campaign::load_journal_records(cli.get("journal"));
  const std::string text = cli.get_bool("json")
                               ? campaign::aggregate_json(records)
                               : campaign::aggregate_table(records);
  if (!cli.get("out").empty()) return write_or_die(cli.get("out"), text);
  std::fputs(text.c_str(), stdout);
  return 0;
}

int cmd_expand(int argc, const char* const* argv) {
  util::Cli cli;
  add_spec_flags(cli);
  if (!cli.parse(argc, argv)) {
    std::fprintf(stderr, "solsched-campaign expand: %s\n", cli.error().c_str());
    return 2;
  }
  if (cli.help_requested()) return usage(stdout);
  const campaign::CampaignSpec spec = spec_from(cli);
  char digest[32];
  std::snprintf(digest, sizeof(digest), "%016llx",
                static_cast<unsigned long long>(spec.digest()));
  std::printf("# spec_digest %s\n", digest);
  for (const campaign::Scenario& s : spec.expand())
    std::printf("%zu %s\n", s.shard, s.key().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage(stderr);
  const std::string cmd = argv[1];
  if (cmd == "--help" || cmd == "help") return usage(stdout);
  try {
    if (cmd == "run") return cmd_run(argc - 1, argv + 1);
    if (cmd == "report") return cmd_report(argc - 1, argv + 1);
    if (cmd == "expand") return cmd_expand(argc - 1, argv + 1);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "solsched-campaign: %s\n", e.what());
    return cmd == "report" ? 1 : 2;
  }
  std::fprintf(stderr, "solsched-campaign: unknown command \"%s\"\n",
               cmd.c_str());
  return usage(stderr);
}
