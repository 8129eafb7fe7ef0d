// solsched-serve: the scheduling-as-a-service daemon and its clients
// (DESIGN.md §16, README "Serving decisions").
//
//   solsched-serve run     --socket S --cache-dir C [--status P]   daemon
//   solsched-serve query   --socket S --key K --voltages CSV ...   one decision
//   solsched-serve loadgen --socket S --key K --count N ...        load driver
//   solsched-serve reload  --socket S --key K                      hot-reload
//   solsched-serve ping    --socket S                              liveness
//   solsched-serve stop    --socket S                              drain+exit
//
// `solsched-inspect watch <status.json>` is the dashboard over the
// daemon's status file.
//
// Exit-code contract:
//   0  success — query/loadgen: every request answered with a decision
//   1  failure — retries exhausted, a typed refusal, or a daemon fault
//   2  usage error (bad flags, malformed key/CSV)
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "fault/serve_faults.hpp"
#include "obs/metrics.hpp"
#include "obs/slo.hpp"
#include "obs/span.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"

namespace {

using namespace solsched;

volatile std::sig_atomic_t g_signal = 0;
void on_signal(int) { g_signal = 1; }

int usage(std::FILE* out) {
  std::fprintf(
      out,
      "usage: solsched-serve <run|query|loadgen|reload|ping|stop> [--help]\n"
      "  run     --socket S --cache-dir C [--status P] [--workers N]\n"
      "          [--queue-depth N] [--timeout-ms MS] [--status-interval-ms MS]\n"
      "          [--assume-infer-us US] [--fault \"drop=0.1,...\"]\n"
      "          [--slo \"availability=0.999,p99-us=5000,fast-s=300,"
      "slow-s=3600,burn=2\"]\n"
      "          [--timeseries P] [--timeseries-capacity N] [--trace-out P]\n"
      "  query   --socket S --key HEX --voltages V1,V2,... [--solar W1,...]\n"
      "          [--cap I] [--day D] [--period P] [--dmr X] [--dead-mask M]\n"
      "          [--deadline-ms MS] [--trace-out P] [retry flags]\n"
      "  loadgen --socket S --key HEX --count N [--clients N] [--caps N]\n"
      "          [--slots N] [--seed S] [--deadline-ms MS] [--trace-out P]\n"
      "          [retry flags]\n"
      "  reload  --socket S --key HEX\n"
      "  ping    --socket S\n"
      "  stop    --socket S\n"
      "\n"
      "retry flags: --max-attempts N --base-backoff-ms MS --max-backoff-ms MS\n"
      "             --recv-timeout-ms MS --jitter-seed S\n"
      "\n"
      "--trace-out arms the Chrome trace sink and stamps every query with a\n"
      "trace id; the daemon's --trace-out dump and the client's stitch into\n"
      "one timeline via `solsched-inspect timeline`.\n"
      "\n"
      "exit codes: 0 success; 1 refusal/exhausted retries/daemon fault;\n"
      "            2 usage error\n");
  return out == stdout ? 0 : 2;
}

/// 1-16 hex digits -> controller key; throws on anything else.
std::uint64_t parse_key(const std::string& text) {
  if (text.empty() || text.size() > 16)
    throw std::invalid_argument("--key: expected 1-16 hex digits");
  std::uint64_t key = 0;
  for (char c : text) {
    int digit;
    if (c >= '0' && c <= '9') digit = c - '0';
    else if (c >= 'a' && c <= 'f') digit = c - 'a' + 10;
    else if (c >= 'A' && c <= 'F') digit = c - 'A' + 10;
    else throw std::invalid_argument("--key: invalid hex digit");
    key = (key << 4) | static_cast<std::uint64_t>(digit);
  }
  return key;
}

std::vector<double> parse_csv(const std::string& name,
                              const std::string& text) {
  std::vector<double> out;
  if (text.empty()) return out;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t comma = text.find(',', start);
    const std::string item = text.substr(
        start, comma == std::string::npos ? std::string::npos : comma - start);
    char* end = nullptr;
    const double value = std::strtod(item.c_str(), &end);
    if (item.empty() || end != item.c_str() + item.size())
      throw std::invalid_argument("--" + name + ": invalid number \"" + item +
                                  "\"");
    out.push_back(value);
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

void add_retry_flags(util::Cli& cli) {
  cli.add_flag("max-attempts", "8", "retry attempts per request");
  cli.add_flag("base-backoff-ms", "20", "initial retry backoff");
  cli.add_flag("max-backoff-ms", "2000", "retry backoff cap");
  cli.add_flag("recv-timeout-ms", "2000", "per-attempt receive timeout");
  cli.add_flag("jitter-seed", "1", "deterministic backoff jitter seed");
}

serve::ServeClient::Options client_options(const util::Cli& cli) {
  serve::ServeClient::Options options;
  options.socket_path = cli.get("socket");
  options.max_attempts =
      static_cast<std::size_t>(cli.get_uint("max-attempts", 1000));
  options.base_backoff_ms = cli.get_uint("base-backoff-ms", 60000);
  options.max_backoff_ms = cli.get_uint("max-backoff-ms", 600000);
  options.recv_timeout_ms = cli.get_uint("recv-timeout-ms", 600000);
  options.jitter_seed = cli.get_seed("jitter-seed");
  return options;
}

/// Deterministic one-line rendering of a decision; the tier-1 kill/restart
/// drill compares these bytes across a daemon restart.
void print_decision(const serve::DecisionReply& reply) {
  std::printf("key=%016llx fallback=%u used_fallback=%d cap=",
              static_cast<unsigned long long>(reply.controller_key),
              reply.fallback_code, reply.used_fallback ? 1 : 0);
  if (reply.has_select_cap)
    std::printf("%u", reply.select_cap);
  else
    std::printf("keep");
  std::printf(" alpha=%.17g mode=%s te=", reply.alpha,
              reply.intra_mode ? "intra" : "inter");
  if (reply.n_tasks == 0) {
    std::printf("all");
  } else {
    for (std::uint32_t n = 0; n < reply.n_tasks; ++n)
      std::putchar((reply.te_mask >> n) & 1 ? '1' : '0');
  }
  std::putchar('\n');
}

int cmd_run(int argc, const char* const* argv) {
  util::Cli cli;
  cli.add_flag("socket", "", "AF_UNIX socket path to listen on");
  cli.add_flag("cache-dir", "", "campaign artifact cache with controllers");
  cli.add_flag("status", "", "status.json path (empty = no status file)");
  cli.add_flag("workers", "2", "decision worker threads");
  cli.add_flag("queue-depth", "64", "bounded request queue capacity");
  cli.add_flag("timeout-ms", "1000",
               "server-side per-request deadline cap (0 = none)");
  cli.add_flag("status-interval-ms", "500", "status.json rewrite cadence");
  cli.add_flag("assume-infer-us", "0",
               "assume inference costs this many us for budget checks");
  cli.add_flag("fault", "",
               "reply fault plan: seed=,drop=,delay=,delay-ms=,corrupt=");
  cli.add_flag("slo", "",
               "SLO targets: availability=,p99-us=,fast-s=,slow-s=,burn=");
  cli.add_flag("timeseries", "", "metrics ring JSONL path (empty = off)");
  cli.add_flag("timeseries-capacity", "720", "metrics ring size (samples)");
  cli.add_flag("trace-out", "",
               "Chrome trace dump written on stop (arms the span sink)");
  if (!cli.parse(argc, argv)) {
    std::fprintf(stderr, "solsched-serve run: %s\n", cli.error().c_str());
    return 2;
  }
  if (cli.help_requested()) return usage(stdout);
  if (cli.get("socket").empty() || cli.get("cache-dir").empty()) {
    std::fprintf(stderr,
                 "solsched-serve run: --socket and --cache-dir are required\n");
    return 2;
  }

  serve::Server::Options options;
  options.socket_path = cli.get("socket");
  options.cache_dir = cli.get("cache-dir");
  options.status_path = cli.get("status");
  options.workers = static_cast<std::size_t>(cli.get_uint("workers", 256));
  options.queue_depth =
      static_cast<std::size_t>(cli.get_uint("queue-depth", 1 << 20));
  options.request_timeout_ms = cli.get_uint("timeout-ms", 3600000);
  options.status_interval_ms = cli.get_uint("status-interval-ms", 3600000);
  options.assume_infer_us = cli.get_uint("assume-infer-us");
  options.faults = fault::ServeFaultPlan::parse(cli.get("fault"));
  if (!cli.get("slo").empty()) {
    std::string error;
    if (!obs::parse_slo_config(cli.get("slo"), &options.slo, &error)) {
      std::fprintf(stderr, "solsched-serve run: --slo: %s\n", error.c_str());
      return 2;
    }
  }
  options.timeseries_path = cli.get("timeseries");
  options.timeseries_capacity =
      static_cast<std::size_t>(cli.get_uint("timeseries-capacity", 1 << 20));
  options.trace_path = cli.get("trace-out");
  // Observability flags self-arm: asking for a timeseries or trace dump IS
  // opting in, no SOLSCHED_OBS needed on top.
  if (!options.timeseries_path.empty() || !options.trace_path.empty())
    obs::set_enabled(true);
  if (!options.trace_path.empty()) obs::set_trace_events_enabled(true);

  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);

  serve::Server server(options);
  server.start();
  std::fprintf(stderr, "solsched-serve: listening on %s\n",
               options.socket_path.c_str());
  while (g_signal == 0 && !server.stop_requested())
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  server.stop();
  std::fprintf(stderr, "solsched-serve: stopped\n");
  return 0;
}

int cmd_query(int argc, const char* const* argv) {
  util::Cli cli;
  cli.add_flag("socket", "", "daemon socket path");
  cli.add_flag("key", "", "controller key (hex)", util::Cli::FlagType::kString);
  cli.add_flag("voltages", "", "capacitor voltages, comma separated");
  cli.add_flag("solar", "", "previous period solar watts, comma separated");
  cli.add_flag("cap", "0", "currently selected capacitor index");
  cli.add_flag("day", "0", "day index");
  cli.add_flag("period", "0", "period index within the day");
  cli.add_flag("dmr", "0", "accumulated deadline miss rate");
  cli.add_flag("dead-mask", "0", "bitmask of stuck-dead capacitors");
  cli.add_flag("deadline-ms", "0", "per-request deadline budget (0 = none)");
  cli.add_flag("trace-id", "0",
               "explicit trace id (hex with 0x prefix or decimal; 0 = derive)",
               util::Cli::FlagType::kString);
  cli.add_flag("trace-out", "", "client Chrome trace dump path (arms tracing)");
  add_retry_flags(cli);
  if (!cli.parse(argc, argv)) {
    std::fprintf(stderr, "solsched-serve query: %s\n", cli.error().c_str());
    return 2;
  }
  if (cli.help_requested()) return usage(stdout);
  if (cli.get("socket").empty() || cli.get("key").empty()) {
    std::fprintf(stderr,
                 "solsched-serve query: --socket and --key are required\n");
    return 2;
  }

  serve::QueryRequest request;
  request.controller_key = parse_key(cli.get("key"));
  request.selected_cap =
      static_cast<std::uint32_t>(cli.get_uint("cap", serve::kMaxCaps - 1));
  request.day = static_cast<std::uint32_t>(cli.get_uint("day"));
  request.period = static_cast<std::uint32_t>(cli.get_uint("period"));
  request.accumulated_dmr = cli.get_double("dmr");
  request.dead_mask = cli.get_uint("dead-mask");
  request.deadline_ms =
      static_cast<std::uint32_t>(cli.get_uint("deadline-ms", 3600000));
  request.cap_voltages = parse_csv("voltages", cli.get("voltages"));
  request.last_period_solar_w = parse_csv("solar", cli.get("solar"));

  const std::string trace_out = cli.get("trace-out");
  std::uint64_t trace_id = 0;
  {
    const std::string text = cli.get("trace-id");
    errno = 0;
    char* end = nullptr;
    trace_id = std::strtoull(text.c_str(), &end, 0);
    if (text.empty() || end != text.c_str() + text.size() || errno == ERANGE) {
      std::fprintf(stderr,
                   "solsched-serve query: --trace-id: invalid \"%s\"\n",
                   text.c_str());
      return 2;
    }
  }
  if (!trace_out.empty()) {
    obs::set_enabled(true);
    obs::set_trace_events_enabled(true);
    if (trace_id == 0)
      trace_id = serve::derive_trace_id(cli.get_seed("jitter-seed"), 0);
  }
  // A bare --trace-id (no client dump) still rides the wire: the daemon's
  // dump tags its stage spans with it even when this side records nothing.
  request.trace.trace_id = trace_id;

  serve::ServeClient client(client_options(cli));
  serve::DecisionReply reply;
  const auto result = client.query(request, &reply);
  if (result != serve::ServeClient::Result::kOk) {
    std::fprintf(stderr, "solsched-serve query: %s (%s)\n",
                 result == serve::ServeClient::Result::kRefused
                     ? "refused"
                     : "retries exhausted",
                 client.last_error().message.c_str());
    return 1;
  }
  print_decision(reply);
  if (!trace_out.empty()) {
    if (!obs::write_chrome_trace(trace_out)) {
      std::fprintf(stderr, "solsched-serve query: cannot write %s\n",
                   trace_out.c_str());
      return 1;
    }
    std::fprintf(stderr, "solsched-serve query: trace 0x%llx -> %s\n",
                 static_cast<unsigned long long>(trace_id), trace_out.c_str());
  }
  return 0;
}

int cmd_loadgen(int argc, const char* const* argv) {
  util::Cli cli;
  cli.add_flag("socket", "", "daemon socket path");
  cli.add_flag("key", "", "controller key (hex)", util::Cli::FlagType::kString);
  cli.add_flag("count", "100", "queries per client");
  cli.add_flag("clients", "1", "concurrent client threads");
  cli.add_flag("caps", "2", "capacitor count in generated queries");
  cli.add_flag("slots", "10", "solar slots in generated queries");
  cli.add_flag("seed", "1", "query-generation seed");
  cli.add_flag("deadline-ms", "0", "per-request deadline (0 = none)");
  cli.add_flag("trace-out", "",
               "client Chrome trace dump path (arms tracing, stamps ids)");
  add_retry_flags(cli);
  if (!cli.parse(argc, argv)) {
    std::fprintf(stderr, "solsched-serve loadgen: %s\n", cli.error().c_str());
    return 2;
  }
  if (cli.help_requested()) return usage(stdout);
  if (cli.get("socket").empty() || cli.get("key").empty()) {
    std::fprintf(stderr,
                 "solsched-serve loadgen: --socket and --key are required\n");
    return 2;
  }
  const std::uint64_t key = parse_key(cli.get("key"));
  const std::size_t count =
      static_cast<std::size_t>(cli.get_uint("count", 1000000));
  const std::size_t clients =
      static_cast<std::size_t>(cli.get_uint("clients", 256));
  const std::size_t n_caps =
      static_cast<std::size_t>(cli.get_uint("caps", serve::kMaxCaps));
  const std::size_t n_slots =
      static_cast<std::size_t>(cli.get_uint("slots", serve::kMaxSolarSlots));
  const std::uint64_t seed = cli.get_seed("seed");
  const std::uint32_t deadline_ms =
      static_cast<std::uint32_t>(cli.get_uint("deadline-ms", 3600000));
  const serve::ServeClient::Options base_options = client_options(cli);
  const std::string trace_out = cli.get("trace-out");
  const bool traced = !trace_out.empty();
  if (traced) {
    obs::set_enabled(true);
    obs::set_trace_events_enabled(true);
  }

  struct ClientTally {
    std::size_t ok = 0, refused = 0, exhausted = 0;
    std::size_t retries = 0, reconnects = 0;
    std::size_t shed_seen = 0, timeout_seen = 0, shutdown_seen = 0;
    std::uint64_t slowest_trace_id = 0;
    std::uint64_t slowest_us = 0;
  };
  std::vector<ClientTally> tallies(clients == 0 ? 1 : clients);
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < tallies.size(); ++c) {
    threads.emplace_back([&, c] {
      serve::ServeClient::Options options = base_options;
      options.jitter_seed = base_options.jitter_seed + c;
      serve::ServeClient client(options);
      util::Rng rng(seed + 1000 * c);
      for (std::size_t i = 0; i < count; ++i) {
        serve::QueryRequest request;
        request.controller_key = key;
        request.day = static_cast<std::uint32_t>(i / 12);
        request.period = static_cast<std::uint32_t>(i % 12);
        request.selected_cap =
            static_cast<std::uint32_t>(rng.uniform_int(
                0, static_cast<int>(n_caps) - 1));
        request.accumulated_dmr = rng.uniform(0.0, 0.4);
        request.deadline_ms = deadline_ms;
        for (std::size_t h = 0; h < n_caps; ++h)
          request.cap_voltages.push_back(rng.uniform(0.5, 5.0));
        for (std::size_t m = 0; m < n_slots; ++m)
          request.last_period_solar_w.push_back(rng.uniform(0.0, 0.2));
        // Deterministic per-request id: client c's i-th query always gets
        // derive_trace_id(seed, c*count + i), so a rerun with the same
        // flags names the same requests.
        if (traced)
          request.trace.trace_id =
              serve::derive_trace_id(seed, c * count + i);
        serve::DecisionReply reply;
        const auto t0 = std::chrono::steady_clock::now();
        const auto result = client.query(request, &reply);
        if (traced) {
          const auto elapsed_us = static_cast<std::uint64_t>(
              std::chrono::duration_cast<std::chrono::microseconds>(
                  std::chrono::steady_clock::now() - t0)
                  .count());
          if (elapsed_us >= tallies[c].slowest_us) {
            tallies[c].slowest_us = elapsed_us;
            tallies[c].slowest_trace_id = request.trace.trace_id;
          }
        }
        switch (result) {
          case serve::ServeClient::Result::kOk: ++tallies[c].ok; break;
          case serve::ServeClient::Result::kRefused:
            ++tallies[c].refused;
            break;
          case serve::ServeClient::Result::kExhausted:
            ++tallies[c].exhausted;
            break;
        }
      }
      tallies[c].retries = client.retries();
      tallies[c].reconnects = client.reconnects();
      tallies[c].shed_seen = client.seen_overloaded();
      tallies[c].timeout_seen = client.seen_timeout();
      tallies[c].shutdown_seen = client.seen_shutting_down();
    });
  }
  for (auto& t : threads) t.join();
  ClientTally total;
  for (const auto& tally : tallies) {
    total.ok += tally.ok;
    total.refused += tally.refused;
    total.exhausted += tally.exhausted;
    total.retries += tally.retries;
    total.reconnects += tally.reconnects;
    total.shed_seen += tally.shed_seen;
    total.timeout_seen += tally.timeout_seen;
    total.shutdown_seen += tally.shutdown_seen;
    if (tally.slowest_us >= total.slowest_us) {
      total.slowest_us = tally.slowest_us;
      total.slowest_trace_id = tally.slowest_trace_id;
    }
  }
  std::printf(
      "loadgen: ok %zu refused %zu exhausted %zu retries %zu reconnects %zu\n",
      total.ok, total.refused, total.exhausted, total.retries,
      total.reconnects);
  // Client-side availability: answered / attempted. The daemon's own
  // status.json availability can read higher — retries hide transient
  // refusals from this number but count as errors server-side.
  const std::size_t attempted = total.ok + total.refused + total.exhausted;
  std::printf("loadgen: shed-seen %zu timeout-seen %zu shutdown-seen %zu "
              "availability %.6f\n",
              total.shed_seen, total.timeout_seen, total.shutdown_seen,
              attempted == 0 ? 1.0
                             : static_cast<double>(total.ok) /
                                   static_cast<double>(attempted));
  if (traced) {
    if (!obs::write_chrome_trace(trace_out)) {
      std::fprintf(stderr, "solsched-serve loadgen: cannot write %s\n",
                   trace_out.c_str());
      return 1;
    }
    std::printf("loadgen: slowest trace 0x%llx (%.3f ms) -> %s\n",
                static_cast<unsigned long long>(total.slowest_trace_id),
                static_cast<double>(total.slowest_us) / 1000.0,
                trace_out.c_str());
  }
  return total.refused == 0 && total.exhausted == 0 ? 0 : 1;
}

int cmd_reload(int argc, const char* const* argv) {
  util::Cli cli;
  cli.add_flag("socket", "", "daemon socket path");
  cli.add_flag("key", "", "controller key (hex)", util::Cli::FlagType::kString);
  add_retry_flags(cli);
  if (!cli.parse(argc, argv)) {
    std::fprintf(stderr, "solsched-serve reload: %s\n", cli.error().c_str());
    return 2;
  }
  if (cli.help_requested()) return usage(stdout);
  if (cli.get("socket").empty() || cli.get("key").empty()) {
    std::fprintf(stderr,
                 "solsched-serve reload: --socket and --key are required\n");
    return 2;
  }
  serve::ServeClient client(client_options(cli));
  serve::ReloadReply ack;
  if (client.reload(parse_key(cli.get("key")), &ack) !=
      serve::ServeClient::Result::kOk) {
    std::fprintf(stderr, "solsched-serve reload: %s\n",
                 client.last_error().message.c_str());
    return 1;
  }
  std::printf("reload %s: %s\n", ack.ok ? "ok" : "failed",
              ack.message.c_str());
  return ack.ok ? 0 : 1;
}

int cmd_simple(int argc, const char* const* argv, bool stop) {
  util::Cli cli;
  cli.add_flag("socket", "", "daemon socket path");
  add_retry_flags(cli);
  if (!cli.parse(argc, argv)) {
    std::fprintf(stderr, "solsched-serve: %s\n", cli.error().c_str());
    return 2;
  }
  if (cli.help_requested()) return usage(stdout);
  if (cli.get("socket").empty()) {
    std::fprintf(stderr, "solsched-serve: --socket is required\n");
    return 2;
  }
  serve::ServeClient client(client_options(cli));
  const auto result = stop ? client.shutdown_server() : client.ping();
  if (result != serve::ServeClient::Result::kOk) {
    std::fprintf(stderr, "solsched-serve: %s\n",
                 client.last_error().message.c_str());
    return 1;
  }
  std::puts(stop ? "stopping" : "pong");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage(stderr);
  const std::string cmd = argv[1];
  if (cmd == "--help" || cmd == "help") return usage(stdout);
  try {
    if (cmd == "run") return cmd_run(argc - 1, argv + 1);
    if (cmd == "query") return cmd_query(argc - 1, argv + 1);
    if (cmd == "loadgen") return cmd_loadgen(argc - 1, argv + 1);
    if (cmd == "reload") return cmd_reload(argc - 1, argv + 1);
    if (cmd == "ping") return cmd_simple(argc - 1, argv + 1, false);
    if (cmd == "stop") return cmd_simple(argc - 1, argv + 1, true);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "solsched-serve: %s\n", e.what());
    return 2;
  }
  std::fprintf(stderr, "solsched-serve: unknown command \"%s\"\n", cmd.c_str());
  return usage(stderr);
}
