#include "obs/analysis/inspect.hpp"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "obs/analysis/attribution.hpp"
#include "obs/analysis/ledger.hpp"
#include "obs/analysis/profile.hpp"
#include "obs/analysis/status_view.hpp"
#include "obs/analysis/timeline.hpp"
#include "obs/json.hpp"
#include "obs/sim_trace.hpp"
#include "obs/span.hpp"
#include "obs/telemetry.hpp"
#include "util/durable.hpp"
#include "util/table.hpp"

namespace solsched::obs::analysis {
namespace {

constexpr const char* kUsage =
    "usage: solsched-inspect <command> [args]\n"
    "\n"
    "commands:\n"
    "  summary <trace>                  event census, ledger totals, miss"
    " causes\n"
    "  ledger <trace> [--max-rows N]    per-period energy ledger +"
    " conservation audit\n"
    "  dmr <trace>                      deadline-miss attribution\n"
    "  diff <runA.json> <runB.json>     compare two run manifests\n"
    "  profile <trace.json> [--folded <out>]\n"
    "                                   fold a Chrome trace into per-span\n"
    "                                   self/total times; --folded writes\n"
    "                                   collapsed stacks for speedscope\n"
    "  telemetry <campaign-dir>         one-shot campaign status render +\n"
    "                                   telemetry event census\n"
    "  watch <dir|status.json> [--plain] [--once] [--interval-ms MS]\n"
    "                                   live dashboard over a campaign or\n"
    "                                   solsched-serve status file (a dir\n"
    "                                   means <dir>/status.json) until its\n"
    "                                   writer stops; --plain: no ANSI\n"
    "                                   escapes, --once: one render\n"
    "  slo <status.json>                render a solsched-serve status file\n"
    "                                   with its SLO verdict; exit 1 while a\n"
    "                                   burn-rate or p99 alert is firing\n"
    "  timeline <trace.json> [...] [--trace-id 0xID] [--merged-out <path>]\n"
    "                                   merge client+server Chrome traces\n"
    "                                   into per-request stage breakdowns;\n"
    "                                   --merged-out writes one stitched\n"
    "                                   trace for chrome://tracing; exit 1\n"
    "                                   when --trace-id is absent from the\n"
    "                                   dumps\n"
    "\n"
    "traces are JSONL (--events-out output). exit codes: 0 ok, 1 check\n"
    "failed, 2 usage or I/O error. watch exits with the final snapshot's\n"
    "code: campaign finished 0, failed 1; serve stopped 0; 2 when --once\n"
    "cannot read the file; 3 when the snapshot is stale (its writer is\n"
    "gone), a campaign stopped, or --once sees the writer still running.\n";

using util::read_file;

/// The one parser for numeric flag values: unsigned digits only (decimal,
/// or 0x-prefixed hex when `allow_hex`), no sign, no trailing text, no
/// overflow. `--max-rows -1` would otherwise wrap to 2^64-1 and `3junk`
/// would run as 3. Throws naming the flag; run_inspect exits 2.
std::uint64_t parse_flag_u64(const std::string& flag, const std::string& text,
                             bool allow_hex = false) {
  const bool hex = allow_hex && text.size() > 2 && text[0] == '0' &&
                   (text[1] == 'x' || text[1] == 'X');
  const char* digits = text.c_str() + (hex ? 2 : 0);
  const unsigned char first = static_cast<unsigned char>(*digits);
  const bool leading_digit = hex ? std::isxdigit(first) : std::isdigit(first);
  errno = 0;
  char* end = nullptr;
  const unsigned long long value =
      leading_digit ? std::strtoull(digits, &end, hex ? 16 : 10) : 0;
  if (!leading_digit || end != text.c_str() + text.size() || errno == ERANGE)
    throw std::runtime_error(flag + " needs an unsigned integer, got '" +
                             text + "'");
  return static_cast<std::uint64_t>(value);
}

/// The value after the flag at args[i]; advances i past it.
const std::string& flag_value(const std::vector<std::string>& args,
                              std::size_t& i) {
  if (i + 1 >= args.size())
    throw std::runtime_error(args[i] + " needs a value");
  return args[++i];
}

std::vector<SimEvent> load_trace(const std::string& path) {
  return SimTrace::parse_jsonl(read_file(path));
}

std::string fmt_j(double joules) { return util::fmt(joules, 4); }

int cmd_summary(const std::string& path) {
  const std::vector<SimEvent> events = load_trace(path);

  std::map<std::string, std::size_t> census;
  for (const SimEvent& ev : events) ++census[ev.type];
  util::TextTable types;
  types.set_header({"event", "count"});
  for (const auto& [type, count] : census)
    types.add_row({type, std::to_string(count)});

  const EnergyLedger ledger = build_ledger(events);
  const AuditResult audit = audit_conservation(ledger);
  const DmrAttribution attr = attribute_misses(events);

  std::printf("%s: %zu events, %zu periods\n\n", path.c_str(), events.size(),
              ledger.periods.size());
  std::printf("%s\n", types.str().c_str());
  std::printf(
      "energy totals [J]: solar %s  served %s  conv_loss %s  leak %s  "
      "spill %s  backup %s  restore %s\n",
      fmt_j(ledger.total_solar_j).c_str(), fmt_j(ledger.total_served_j).c_str(),
      fmt_j(ledger.total_conversion_loss_j).c_str(),
      fmt_j(ledger.total_leakage_loss_j).c_str(),
      fmt_j(ledger.total_spilled_j).c_str(),
      fmt_j(ledger.total_backup_j).c_str(),
      fmt_j(ledger.total_restore_j).c_str());
  std::printf("%s\n", audit.message.c_str());
  std::printf("misses: %zu of %zu jobs (causes: %s)\n", attr.total_misses,
              attr.total_misses + attr.total_completions,
              attr.one_line().c_str());
  return 0;
}

int cmd_ledger(const std::string& path, std::size_t max_rows) {
  const std::vector<SimEvent> events = load_trace(path);
  const EnergyLedger ledger = build_ledger(events);
  const AuditResult audit = audit_conservation(ledger);

  util::TextTable table;
  table.set_header({"day", "period", "begin_j", "solar_j", "served_j",
                    "conv_j", "leak_j", "spill_j", "bkup_j", "rstr_j",
                    "end_j", "residual_j"});
  std::size_t shown = 0;
  for (const LedgerEntry& e : ledger.periods) {
    if (shown >= max_rows) break;
    ++shown;
    table.add_row({std::to_string(e.day), std::to_string(e.period),
                   fmt_j(e.bank_begin_j), fmt_j(e.solar_in_j),
                   fmt_j(e.load_served_j), fmt_j(e.conversion_loss_j),
                   fmt_j(e.leakage_loss_j), fmt_j(e.spilled_j),
                   fmt_j(e.backup_j), fmt_j(e.restore_j), fmt_j(e.bank_end_j),
                   util::fmt(e.residual_j(), 12)});
  }
  std::printf("%s", table.str().c_str());
  if (ledger.periods.size() > shown)
    std::printf("... %zu of %zu periods shown (--max-rows)\n", shown,
                ledger.periods.size());
  std::printf("\n%s\n", audit.message.c_str());
  return audit.ok ? 0 : 1;
}

int cmd_dmr(const std::string& path) {
  const std::vector<SimEvent> events = load_trace(path);
  const DmrAttribution attr = attribute_misses(events);

  util::TextTable table;
  table.set_header({"cause", "misses", "share"});
  for (std::size_t i = 0; i < kMissCauseCount; ++i) {
    const auto cause = static_cast<MissCause>(i);
    const double share =
        attr.total_misses > 0
            ? static_cast<double>(attr.count(cause)) /
                  static_cast<double>(attr.total_misses)
            : 0.0;
    table.add_row({to_string(cause), std::to_string(attr.count(cause)),
                   util::fmt_pct(share)});
  }
  std::printf("%s", table.str().c_str());
  std::printf(
      "\n%zu misses / %zu completions over %zu periods "
      "(%zu periods with misses)\n",
      attr.total_misses, attr.total_completions, attr.periods,
      attr.periods_with_misses);
  return 0;
}

/// Flattens a manifest into dotted key -> rendered value, skipping the
/// "metrics" subtree (a diff of every counter would drown the signal;
/// `summary` on the traces is the tool for that).
void flatten(const JsonValue& value, const std::string& prefix,
             std::map<std::string, std::string>& out) {
  switch (value.kind) {
    case JsonValue::Kind::kObject:
      for (const auto& [k, v] : value.object) {
        if (prefix.empty() && k == "metrics") continue;
        flatten(v, prefix.empty() ? k : prefix + "." + k, out);
      }
      break;
    case JsonValue::Kind::kArray: {
      std::string joined;
      for (std::size_t i = 0; i < value.array.size(); ++i) {
        if (i > 0) joined += ", ";
        std::map<std::string, std::string> one;
        flatten(value.array[i], "", one);
        if (value.array[i].is_number()) {
          char buf[32];
          std::snprintf(buf, sizeof(buf), "%.17g", value.array[i].number);
          joined += buf;
        } else {
          joined += value.array[i].string;
        }
      }
      out[prefix] = "[" + joined + "]";
      break;
    }
    case JsonValue::Kind::kNumber: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.17g", value.number);
      out[prefix] = buf;
      break;
    }
    case JsonValue::Kind::kString: out[prefix] = value.string; break;
    case JsonValue::Kind::kBool: out[prefix] = value.boolean ? "true" : "false";
      break;
    case JsonValue::Kind::kNull: out[prefix] = "null"; break;
  }
}

int cmd_diff(const std::string& path_a, const std::string& path_b) {
  std::map<std::string, std::string> a, b;
  flatten(parse_json(read_file(path_a)), "", a);
  flatten(parse_json(read_file(path_b)), "", b);

  util::TextTable table;
  table.set_header({"field", path_a, path_b});
  for (const auto& [key, value_a] : a) {
    const auto it = b.find(key);
    if (it == b.end())
      table.add_row({key, value_a, "(absent)"});
    else if (it->second != value_a)
      table.add_row({key, value_a, it->second});
  }
  for (const auto& [key, value_b] : b)
    if (a.find(key) == a.end()) table.add_row({key, "(absent)", value_b});

  if (table.row_count() == 0) {
    std::printf("manifests agree on all %zu fields\n", a.size());
    return 0;
  }
  std::printf("%s", table.str().c_str());
  std::printf("\n%zu field(s) differ\n", table.row_count());
  return 1;
}

int cmd_profile(const std::string& trace_path, const std::string& folded_out) {
  const SpanProfile profile = profile_trace(read_file(trace_path));
  std::printf("%s", profile_table(profile).c_str());
  if (!folded_out.empty()) {
    util::write_atomic(folded_out, folded_stacks(profile));
    std::printf("folded stacks (%zu paths) -> %s\n", profile.folded.size(),
                folded_out.c_str());
  }
  return 0;
}

int cmd_telemetry(const std::string& dir) {
  const Status status = parse_status(read_file(dir + "/status.json"));
  std::printf("%s", render_status(status, /*plain=*/true).c_str());

  const TelemetryLog log = load_telemetry(read_file(dir + "/telemetry.jsonl"));
  util::TextTable table;
  table.set_header({"event", "count"});
  for (const auto& [type, count] : log.census())
    table.add_row({type, std::to_string(count)});
  std::printf("\n%s", table.str().c_str());
  std::printf("%zu events, spec %s", log.events.size(),
              log.spec_digest.c_str());
  if (log.dropped_partial > 0)
    std::printf(", %zu crash-torn tail line(s) dropped", log.dropped_partial);
  std::printf("\n");
  return 0;
}

/// `watch`: renders the status file until its writer reaches a terminal
/// state, then exits with that state's code (status_exit_code). A file
/// that cannot be read yet is waited for, except under --once (exit 2).
int cmd_watch(const std::string& target, bool plain, bool once,
              std::uint64_t interval_ms) {
  const std::string path = std::filesystem::is_directory(target)
                               ? target + "/status.json"
                               : target;
  const auto interval = std::chrono::milliseconds(interval_ms);
  for (bool rendered = false;; std::this_thread::sleep_for(interval)) {
    Status status;
    try {
      status = parse_status(read_file(path));
    } catch (const std::exception& e) {
      if (once)
        throw std::runtime_error(
            std::string(e.what()) +
            " (no status snapshot: was the campaign run with SOLSCHED_OBS "
            "set, or the daemon with --status?)");
      continue;  // The writer may not have written its first snapshot yet.
    }
    const std::uint64_t now = wall_ms();
    if (!plain && rendered) std::fputs("\033[H\033[2J", stdout);
    rendered = true;
    std::fputs(render_status(status, plain, now).c_str(), stdout);
    std::fflush(stdout);
    const StatusHeader& header = status_header(status);
    if (header.state != "running") return status_exit_code(status);
    if (status_is_stale(status, now)) {
      std::fprintf(stderr,
                   "solsched-inspect watch: status is stale (last update "
                   "%llu ms ago): its writer is gone without a final "
                   "snapshot\n",
                   static_cast<unsigned long long>(now - header.wall_ms));
      return 3;
    }
    if (once) return 3;  // Still running: incomplete from this vantage.
  }
}

/// `slo`: the daemon's dashboard, whose SLO lines carry the verdict; exit
/// 1 while an alert fires.
int cmd_slo(const std::string& path) {
  const Status status = parse_status(read_file(path));
  const auto* serve = std::get_if<ServeStatus>(&status);
  if (serve == nullptr)
    throw std::runtime_error(path + " is not a solsched-serve status file");
  if (!serve->has_slo) {
    std::printf("%s: no slo configured (start the daemon with --slo)\n",
                path.c_str());
    return 0;
  }
  std::printf("%s", render_status(status, /*plain=*/true).c_str());
  return serve->slo.alert ? 1 : 0;
}

int cmd_timeline(const std::vector<std::string>& paths,
                 std::uint64_t trace_id, const std::string& merged_out) {
  const Timeline timeline = load_timeline(paths);
  const std::string text = render_timeline(timeline, trace_id);
  if (text.empty()) {
    if (trace_id != 0)
      std::printf("trace 0x%llx not found in %zu dump(s)\n",
                  static_cast<unsigned long long>(trace_id), paths.size());
    else
      std::printf("no traced requests in %zu dump(s)\n", paths.size());
  } else {
    std::printf("%s", text.c_str());
  }
  if (!merged_out.empty()) {
    if (!write_merged_trace(timeline, merged_out))
      throw std::runtime_error("cannot write " + merged_out);
    std::printf("merged trace (%zu events) -> %s\n", timeline.events.size(),
                merged_out.c_str());
  }
  return trace_id != 0 && text.empty() ? 1 : 0;
}

}  // namespace

int run_inspect(int argc, const char* const* argv) {
  std::vector<std::string> args;
  for (int i = 1; i < argc; ++i) args.emplace_back(argv[i]);

  try {
    if (args.empty() || args[0] == "--help" || args[0] == "help") {
      std::fputs(kUsage, args.empty() ? stderr : stdout);
      return args.empty() ? 2 : 0;
    }
    const std::string& cmd = args[0];

    if (cmd == "summary" && args.size() == 2) return cmd_summary(args[1]);

    if (cmd == "ledger" && (args.size() == 2 || args.size() == 4)) {
      std::size_t max_rows = 20;
      if (args.size() == 4) {
        if (args[2] != "--max-rows") throw std::runtime_error(
            "unknown flag: " + args[2]);
        max_rows = static_cast<std::size_t>(parse_flag_u64(args[2], args[3]));
      }
      return cmd_ledger(args[1], max_rows);
    }

    if (cmd == "dmr" && args.size() == 2) return cmd_dmr(args[1]);

    if (cmd == "diff" && args.size() == 3) return cmd_diff(args[1], args[2]);

    if (cmd == "profile" && (args.size() == 2 || args.size() == 4)) {
      std::string folded_out;
      if (args.size() == 4) {
        if (args[2] != "--folded")
          throw std::runtime_error("unknown flag: " + args[2]);
        folded_out = args[3];
      }
      return cmd_profile(args[1], folded_out);
    }

    if (cmd == "telemetry" && args.size() == 2) return cmd_telemetry(args[1]);

    if (cmd == "watch") {
      std::vector<std::string> paths;
      bool plain = false, once = false;
      std::uint64_t interval_ms = 500;
      for (std::size_t i = 1; i < args.size(); ++i) {
        if (args[i] == "--plain")
          plain = true;
        else if (args[i] == "--once")
          once = true;
        else if (args[i] == "--interval-ms")
          interval_ms = parse_flag_u64("--interval-ms", flag_value(args, i));
        else if (!args[i].empty() && args[i][0] == '-')
          throw std::runtime_error("unknown flag: " + args[i]);
        else
          paths.push_back(args[i]);
      }
      if (paths.size() != 1)
        throw std::runtime_error("watch takes one directory or status.json");
      if (interval_ms == 0)
        throw std::runtime_error("--interval-ms must be nonzero");
      return cmd_watch(paths[0], plain, once, interval_ms);
    }

    if (cmd == "slo" && args.size() == 2) return cmd_slo(args[1]);

    if (cmd == "timeline" && args.size() >= 2) {
      std::vector<std::string> paths;
      std::uint64_t trace_id = 0;
      std::string merged_out;
      for (std::size_t i = 1; i < args.size(); ++i) {
        if (args[i] == "--trace-id") {
          trace_id = parse_flag_u64("--trace-id", flag_value(args, i),
                                    /*allow_hex=*/true);
          if (trace_id == 0)
            throw std::runtime_error("--trace-id must be nonzero");
        } else if (args[i] == "--merged-out") {
          merged_out = flag_value(args, i);
        } else if (!args[i].empty() && args[i][0] == '-') {
          throw std::runtime_error("unknown flag: " + args[i]);
        } else {
          paths.push_back(args[i]);
        }
      }
      if (paths.empty())
        throw std::runtime_error("timeline needs at least one trace dump");
      return cmd_timeline(paths, trace_id, merged_out);
    }

    std::fprintf(stderr, "solsched-inspect: bad command line\n\n%s", kUsage);
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "solsched-inspect: %s\n", e.what());
    return 2;
  }
}

}  // namespace solsched::obs::analysis
