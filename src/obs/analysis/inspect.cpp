#include "obs/analysis/inspect.hpp"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/analysis/attribution.hpp"
#include "obs/analysis/json_mini.hpp"
#include "obs/analysis/ledger.hpp"
#include "obs/analysis/profile.hpp"
#include "obs/analysis/serve_view.hpp"
#include "obs/analysis/telemetry_view.hpp"
#include "obs/analysis/timeline.hpp"
#include "obs/sim_trace.hpp"
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
    "  serve <status.json> [--max-age-ms N] [--now-ms N]\n"
    "                                   render a solsched-serve status file;\n"
    "                                   exit 1 when a \"running\" snapshot is\n"
    "                                   older than the age bound (daemon\n"
    "                                   presumed killed); --now-ms overrides\n"
    "                                   the wall clock for reproducible runs\n"
    "  slo <status.json>                render the daemon's SLO block; exit\n"
    "                                   1 while a burn-rate or p99 alert is\n"
    "                                   firing\n"
    "  timeline <trace.json> [...] [--trace-id 0xID] [--merged-out <path>]\n"
    "                                   merge client+server Chrome traces\n"
    "                                   into per-request stage breakdowns;\n"
    "                                   --merged-out writes one stitched\n"
    "                                   trace for chrome://tracing; exit 1\n"
    "                                   when --trace-id is absent from the\n"
    "                                   dumps\n"
    "\n"
    "traces are JSONL (--trace-out/--events-out output); a path ending in\n"
    ".csv is read as long-format CSV. exit codes: 0 ok, 1 check failed,\n"
    "2 usage or I/O error.\n";

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

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

std::vector<SimEvent> load_trace(const std::string& path) {
  const std::string body = read_file(path);
  return ends_with(path, ".csv") ? SimTrace::parse_csv(body)
                                 : SimTrace::parse_jsonl(body);
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
  const CampaignStatus status = parse_status(read_file(dir + "/status.json"));
  std::printf("%s", render_status(status, /*plain=*/true).c_str());

  const TelemetryLog log = load_telemetry(read_file(dir + "/telemetry.jsonl"));
  util::TextTable table;
  table.set_header({"event", "count"});
  for (const auto& [type, count] : log.census())
    table.add_row({type, std::to_string(count)});
  std::printf("\n%s", table.str().c_str());
  std::printf("%zu events, spec %s", log.lines.size(),
              log.spec_digest.c_str());
  if (log.dropped_partial > 0)
    std::printf(", %zu crash-torn tail line(s) dropped", log.dropped_partial);
  std::printf("\n");
  return 0;
}

int cmd_serve(const std::string& path, std::uint64_t now_ms,
              std::uint64_t max_age_ms) {
  const ServeStatus status = parse_serve_status(read_file(path));
  std::printf("%s", render_serve_status(status, now_ms, max_age_ms).c_str());
  return serve_status_is_stale(status, now_ms, max_age_ms) ? 1 : 0;
}

int cmd_slo(const std::string& path) {
  const ServeStatus status = parse_serve_status(read_file(path));
  if (!status.has_slo) {
    std::printf("%s: no slo configured (start the daemon with --slo)\n",
                path.c_str());
    return 0;
  }
  const ServeStatus::Slo& slo = status.slo;
  std::printf("slo targets: availability %.4f  p99 %llu us  "
              "windows %llu/%llu s  burn alert >= %.1f\n",
              slo.target_availability,
              static_cast<unsigned long long>(slo.target_p99_us),
              static_cast<unsigned long long>(slo.fast_window_s),
              static_cast<unsigned long long>(slo.slow_window_s),
              slo.burn_alert);
  std::printf("observed:    availability %.4f (fast) %.4f (slow)  "
              "burn %.2f/%.2f  p99 %llu/%llu us\n",
              slo.availability_fast, slo.availability_slow, slo.burn_fast,
              slo.burn_slow,
              static_cast<unsigned long long>(slo.p99_fast_us),
              static_cast<unsigned long long>(slo.p99_slow_us));
  if (slo.alert) {
    std::printf("verdict:     ALERT (%s%s%s)\n",
                slo.alert_availability ? "availability-burn" : "",
                slo.alert_availability && slo.alert_p99 ? ", " : "",
                slo.alert_p99 ? "p99-latency" : "");
    return 1;
  }
  std::printf("verdict:     ok (error budget intact)\n");
  return 0;
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

    if (cmd == "serve" && args.size() >= 2 && args.size() % 2 == 0) {
      std::uint64_t max_age_ms = 5000;
      std::uint64_t now_ms = static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::milliseconds>(
              std::chrono::system_clock::now().time_since_epoch())
              .count());
      for (std::size_t i = 2; i + 1 < args.size(); i += 2) {
        if (args[i] == "--max-age-ms")
          max_age_ms = parse_flag_u64(args[i], args[i + 1]);
        else if (args[i] == "--now-ms")
          now_ms = parse_flag_u64(args[i], args[i + 1]);
        else
          throw std::runtime_error("unknown flag: " + args[i]);
      }
      return cmd_serve(args[1], now_ms, max_age_ms);
    }

    if (cmd == "slo" && args.size() == 2) return cmd_slo(args[1]);

    if (cmd == "timeline" && args.size() >= 2) {
      std::vector<std::string> paths;
      std::uint64_t trace_id = 0;
      std::string merged_out;
      for (std::size_t i = 1; i < args.size(); ++i) {
        if (args[i] == "--trace-id") {
          if (i + 1 >= args.size())
            throw std::runtime_error("--trace-id needs a value");
          trace_id =
              parse_flag_u64(args[i], args[i + 1], /*allow_hex=*/true);
          ++i;
          if (trace_id == 0)
            throw std::runtime_error("--trace-id must be nonzero");
        } else if (args[i] == "--merged-out") {
          if (i + 1 >= args.size())
            throw std::runtime_error("--merged-out needs a value");
          merged_out = args[++i];
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
