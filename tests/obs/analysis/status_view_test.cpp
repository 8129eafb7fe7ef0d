// Reader side of the two status.json kinds: parsing by magic, the
// watcher's exit-code and staleness contract (a writer killed without its
// final snapshot), and the dashboard `solsched-inspect watch` renders,
// pinned byte for byte.
#include "obs/analysis/status_view.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <variant>

namespace solsched::obs::analysis {
namespace {

CampaignStatus campaign(const std::string& text) {
  return std::get<CampaignStatus>(parse_status(text));
}

ServeStatus serve(const std::string& text) {
  return std::get<ServeStatus>(parse_status(text));
}

// A status.json exactly as TelemetryBus::write_status emits it.
const char* kStatus = R"({
  "status": "solsched-campaign-status-v1",
  "spec_digest": "00000000deadbeef",
  "state": "running",
  "wall_ms": 1000000,
  "elapsed_ms": 45000,
  "threads": 4,
  "heartbeat_ms": 1000,
  "stall_ms": 30000,
  "heartbeats": 45,
  "shards": {"total": 64, "done": 20, "resumed": 4, "executed": 16,
             "in_flight": 4, "failed": 1, "stalled": 2},
  "cache": {"artifact_hits": 8, "hit_rate": 0.5, "trainings": 2},
  "throughput_shards_per_min": 21.3,
  "eta_s": 124,
  "workloads": [
    {"workload": "ecg", "total": 32, "done": 12, "mean_shard_ms": 2500,
     "eta_s": 50},
    {"workload": "wam", "total": 32, "done": 8, "mean_shard_ms": 3000,
     "eta_s": 74}
  ]
})";

// A status.json exactly as serve::Server::status_json emits it.
const char* kServeStatus = R"({
  "status": "solsched-serve-v1",
  "state": "running",
  "wall_ms": 5000000,
  "heartbeat_ms": 1000,
  "pid": 4242,
  "socket": "/tmp/solsched.sock",
  "controllers": 3,
  "workers": 2,
  "queue_capacity": 64,
  "queue_depth": 5,
  "queue_peak": 17,
  "requests": 1000,
  "decisions": 950,
  "fallbacks": 12,
  "malformed": 3,
  "shed": 20,
  "timeouts": 7,
  "errors": 20,
  "reloads": 2,
  "faults_injected": 0,
  "latency_count": 950,
  "latency_sum_us": 95000,
  "p50_us": 100,
  "p99_us": 500
})";

// The same snapshot with the PR-9 observability extensions: degradation
// rungs, lifetime availability, and the SLO block.
const char* kServeStatusWithSlo = R"({
  "status": "solsched-serve-v1",
  "state": "running",
  "wall_ms": 5000000,
  "heartbeat_ms": 500,
  "pid": 4242,
  "socket": "/tmp/solsched.sock",
  "controllers": 3,
  "workers": 2,
  "queue_capacity": 64,
  "queue_depth": 5,
  "queue_peak": 17,
  "requests": 1000,
  "decisions": 950,
  "fallbacks": 12,
  "fallback_no_controller": 6,
  "fallback_corrupt": 2,
  "fallback_budget": 3,
  "fallback_sched": 1,
  "malformed": 3,
  "shed": 20,
  "timeouts": 7,
  "errors": 50,
  "reloads": 2,
  "faults_injected": 0,
  "latency_count": 950,
  "latency_sum_us": 95000,
  "p50_us": 100,
  "p99_us": 500,
  "availability": 0.95,
  "slo": {
    "target_availability": 0.99,
    "target_p99_us": 5000,
    "fast_window_s": 30,
    "slow_window_s": 60,
    "burn_alert": 2.0,
    "availability_fast": 0.9,
    "availability_slow": 0.93,
    "burn_fast": 10.0,
    "burn_slow": 7.0,
    "p99_fast_us": 450,
    "p99_slow_us": 400,
    "alert_availability": true,
    "alert_p99": false,
    "alert": true
  }
})";

TEST(TelemetryView, ParseStatusReadsEveryField) {
  const CampaignStatus s = campaign(kStatus);
  EXPECT_EQ(s.spec_digest, "00000000deadbeef");
  EXPECT_EQ(s.state, "running");
  EXPECT_EQ(s.wall_ms, 1000000u);
  EXPECT_EQ(s.elapsed_ms, 45000u);
  EXPECT_EQ(s.threads, 4u);
  EXPECT_EQ(s.heartbeat_ms, 1000u);
  EXPECT_EQ(s.stall_ms, 30000u);
  EXPECT_EQ(s.heartbeats, 45u);
  EXPECT_EQ(s.total, 64u);
  EXPECT_EQ(s.done, 20u);
  EXPECT_EQ(s.resumed, 4u);
  EXPECT_EQ(s.executed, 16u);
  EXPECT_EQ(s.in_flight, 4u);
  EXPECT_EQ(s.failed, 1u);
  EXPECT_EQ(s.stalled, 2u);
  EXPECT_EQ(s.artifact_hits, 8u);
  EXPECT_DOUBLE_EQ(s.hit_rate, 0.5);
  EXPECT_EQ(s.trainings, 2u);
  EXPECT_DOUBLE_EQ(s.throughput_shards_per_min, 21.3);
  EXPECT_DOUBLE_EQ(s.eta_s, 124.0);
  ASSERT_EQ(s.workloads.size(), 2u);
  EXPECT_EQ(s.workloads[0].workload, "ecg");
  EXPECT_EQ(s.workloads[0].total, 32u);
  EXPECT_EQ(s.workloads[0].done, 12u);
  EXPECT_DOUBLE_EQ(s.workloads[1].mean_shard_ms, 3000.0);
}

TEST(TelemetryView, ParseStatusRejectsWrongOrMissingMagic) {
  EXPECT_THROW(parse_status("{\"status\": \"other-magic\"}"),
               std::runtime_error);
  EXPECT_THROW(parse_status("{\"status\": \"solsched-serve-v2\"}"),
               std::runtime_error);
  EXPECT_THROW(parse_status("{\"state\": \"running\"}"), std::runtime_error);
  EXPECT_THROW(parse_status("not json"), std::runtime_error);
}

// The watcher's exit contract: 0 success, 1 failure, 3 "resume me" for a
// campaign; a daemon's clean stop is its success.
TEST(TelemetryView, StatusExitCodePerState) {
  CampaignStatus s;
  s.state = "finished";
  EXPECT_EQ(status_exit_code(s), 0);
  s.state = "failed";
  EXPECT_EQ(status_exit_code(s), 1);
  s.state = "stopped";
  EXPECT_EQ(status_exit_code(s), 3);
  s.state = "running";  // Writer gone: incomplete, so resume.
  EXPECT_EQ(status_exit_code(s), 3);

  ServeStatus d;
  d.state = "stopped";
  EXPECT_EQ(status_exit_code(d), 0);
  d.state = "running";
  EXPECT_EQ(status_exit_code(d), 3);
}

// kill -9 leaves a "running" snapshot forever; the watcher ages it out
// after max(stall window, five heartbeats) of no rewrites.
TEST(TelemetryView, StalenessWindowAgesOutDeadWriters) {
  CampaignStatus s = campaign(kStatus);  // running, wall_ms=1000000.
  EXPECT_EQ(s.stall_ms, 30000u);             // > 5 * heartbeat_ms.
  EXPECT_FALSE(status_is_stale(s, 1000000 + 30000));  // At the window edge.
  EXPECT_TRUE(status_is_stale(s, 1000000 + 30001));
  EXPECT_FALSE(status_is_stale(s, 0));  // No clock given: cannot judge.

  s.stall_ms = 0;  // Five missed heartbeats dominate.
  EXPECT_FALSE(status_is_stale(s, 1000000 + 5000));
  EXPECT_TRUE(status_is_stale(s, 1000000 + 5001));

  s.state = "finished";  // Terminal snapshots never go stale.
  EXPECT_FALSE(status_is_stale(s, 2000000));
}

TEST(TelemetryView, RenderStatusPlainHasNoEscapesAndAllSections) {
  const CampaignStatus s = campaign(kStatus);
  const std::string plain = render_status(s, /*plain=*/true);
  EXPECT_EQ(plain.find('\033'), std::string::npos);
  EXPECT_NE(plain.find("campaign 00000000deadbeef"), std::string::npos);
  EXPECT_NE(plain.find("state running"), std::string::npos);
  EXPECT_NE(plain.find("20/64 (31.2%)"), std::string::npos);
  EXPECT_NE(plain.find("stalled 2"), std::string::npos);
  EXPECT_NE(plain.find("throughput 21.30 shards/min"), std::string::npos);
  EXPECT_NE(plain.find("eta 2m04s"), std::string::npos);
  EXPECT_NE(plain.find("cache hit-rate 50%"), std::string::npos);
  EXPECT_NE(plain.find("ecg"), std::string::npos);
  EXPECT_NE(plain.find("wam"), std::string::npos);
  // ANSI mode colors the state; stale running snapshots get flagged.
  EXPECT_NE(render_status(s, false).find('\033'), std::string::npos);
  EXPECT_NE(render_status(s, true, 2000000).find("(stale: writer gone?)"),
            std::string::npos);
  EXPECT_EQ(render_status(s, true, 1000001).find("stale"), std::string::npos);
}

TEST(TelemetryView, StaleRunningSnapshotFromDeadProcessFlagsAndExits) {
  const CampaignStatus s = campaign(kStatus);  // running, wall 1000000.
  // Hours later the writer is clearly dead: stale, rendered as such, and
  // the watcher's verdict is "resume me" (3), never "finished".
  const std::uint64_t hours_later = 1000000 + 7200000;
  EXPECT_TRUE(status_is_stale(s, hours_later));
  EXPECT_NE(render_status(s, true, hours_later).find("stale"),
            std::string::npos);
  EXPECT_EQ(status_exit_code(s), 3);
}

TEST(ServeView, ParseStatusReadsEveryField) {
  const ServeStatus s = serve(kServeStatus);
  EXPECT_EQ(s.state, "running");
  EXPECT_EQ(s.wall_ms, 5000000u);
  EXPECT_EQ(s.heartbeat_ms, 1000u);
  EXPECT_EQ(s.stall_ms, 0u);
  EXPECT_EQ(s.pid, 4242u);
  EXPECT_EQ(s.socket, "/tmp/solsched.sock");
  EXPECT_EQ(s.controllers, 3u);
  EXPECT_EQ(s.workers, 2u);
  EXPECT_EQ(s.queue_capacity, 64u);
  EXPECT_EQ(s.queue_depth, 5u);
  EXPECT_EQ(s.queue_peak, 17u);
  EXPECT_EQ(s.requests, 1000u);
  EXPECT_EQ(s.decisions, 950u);
  EXPECT_EQ(s.fallbacks, 12u);
  EXPECT_EQ(s.malformed, 3u);
  EXPECT_EQ(s.shed, 20u);
  EXPECT_EQ(s.timeouts, 7u);
  EXPECT_EQ(s.errors, 20u);
  EXPECT_EQ(s.reloads, 2u);
  EXPECT_EQ(s.latency_count, 950u);
  EXPECT_EQ(s.latency_sum_us, 95000u);
  EXPECT_EQ(s.p50_us, 100u);
  EXPECT_EQ(s.p99_us, 500u);
  // Pre-PR-9 files carry no rung/availability/SLO keys: defaults apply.
  EXPECT_EQ(s.fallback_no_controller, 0u);
  EXPECT_DOUBLE_EQ(s.availability, 1.0);
  EXPECT_FALSE(s.has_slo);
}

TEST(ServeView, ParseReadsRungsAvailabilityAndSloBlock) {
  const ServeStatus s = serve(kServeStatusWithSlo);
  EXPECT_EQ(s.fallback_no_controller, 6u);
  EXPECT_EQ(s.fallback_corrupt, 2u);
  EXPECT_EQ(s.fallback_budget, 3u);
  EXPECT_EQ(s.fallback_sched, 1u);
  EXPECT_DOUBLE_EQ(s.availability, 0.95);
  ASSERT_TRUE(s.has_slo);
  EXPECT_DOUBLE_EQ(s.slo.target_availability, 0.99);
  EXPECT_EQ(s.slo.target_p99_us, 5000u);
  EXPECT_EQ(s.slo.fast_window_s, 30u);
  EXPECT_EQ(s.slo.slow_window_s, 60u);
  EXPECT_DOUBLE_EQ(s.slo.burn_alert, 2.0);
  EXPECT_DOUBLE_EQ(s.slo.availability_fast, 0.9);
  EXPECT_DOUBLE_EQ(s.slo.availability_slow, 0.93);
  EXPECT_DOUBLE_EQ(s.slo.burn_fast, 10.0);
  EXPECT_DOUBLE_EQ(s.slo.burn_slow, 7.0);
  EXPECT_EQ(s.slo.p99_fast_us, 450u);
  EXPECT_EQ(s.slo.p99_slow_us, 400u);
  EXPECT_TRUE(s.slo.alert_availability);
  EXPECT_FALSE(s.slo.alert_p99);
  EXPECT_TRUE(s.slo.alert);
}

TEST(ServeView, RejectsDegenerateDocuments) {
  // Zero-length, magic-less and wrong-magic files must all be refused —
  // these are what a watcher finds when it races the daemon's first write
  // or points at the wrong campaign file.
  EXPECT_THROW(parse_status(""), std::runtime_error);
  EXPECT_THROW(parse_status("{}"), std::runtime_error);
  EXPECT_THROW(parse_status("not json"), std::runtime_error);
  // Counts outside [0, 2^64) read as 0, never as a wrapped or undefined
  // conversion.
  const ServeStatus hostile = serve(
      R"({"status": "solsched-serve-v1", "wall_ms": -5, "pid": 1e300})");
  EXPECT_EQ(hostile.wall_ms, 0u);
  EXPECT_EQ(hostile.pid, 0u);
  const CampaignStatus eta = campaign(
      R"({"status": "solsched-campaign-status-v1", "eta_s": 1e300})");
  EXPECT_NE(render_status(eta, true).find("eta 277777777h46m"),
            std::string::npos);  // Clamped to 1e12 s.
  // The magic alone picks the kind: a campaign file is never read as serve.
  EXPECT_TRUE(std::holds_alternative<CampaignStatus>(
      parse_status(R"({"status": "solsched-campaign-status-v1"})")));
}

// The campaign's rule with the daemon's cadence: five missed 1000 ms
// heartbeats.
TEST(ServeView, StalenessAgesOutKilledDaemons) {
  ServeStatus s = serve(kServeStatus);  // running, wall 5000000.
  EXPECT_FALSE(status_is_stale(s, 5000000 + 5000));  // At the edge.
  EXPECT_TRUE(status_is_stale(s, 5000000 + 5001));
  EXPECT_FALSE(status_is_stale(s, 0));  // No clock: no verdict.

  // --status-interval-ms 0 writes only the start and stop snapshots: with
  // no cadence, a "running" snapshot is stale once it is 1 ms old.
  s.heartbeat_ms = 0;
  EXPECT_FALSE(status_is_stale(s, 5000000));
  EXPECT_TRUE(status_is_stale(s, 5000000 + 1));

  // A kill -9 leaves the last "running" snapshot behind forever; a clean
  // stop writes "stopped", which never goes stale.
  s.state = "stopped";
  EXPECT_FALSE(status_is_stale(s, 5000000 + 7200000));
}

TEST(ServeView, RenderCarriesCountersAndStaleNote) {
  const ServeStatus s = serve(kServeStatus);
  const std::string text = render_status(s, /*plain=*/true);
  EXPECT_NE(text.find("state running"), std::string::npos);
  EXPECT_NE(text.find("pid 4242"), std::string::npos);
  EXPECT_NE(text.find("/tmp/solsched.sock"), std::string::npos);
  EXPECT_NE(text.find("queue 5/64 (peak 17)"), std::string::npos);
  EXPECT_NE(text.find("requests 1000"), std::string::npos);
  EXPECT_NE(text.find("fallbacks 12"), std::string::npos);
  EXPECT_NE(text.find("malformed 3"), std::string::npos);
  EXPECT_NE(text.find("p99 500 us"), std::string::npos);
  EXPECT_EQ(text.find("stale"), std::string::npos);

  EXPECT_NE(render_status(s, true, 5000000 + 60000).find(
                "(stale: daemon gone?)"),
            std::string::npos);
}

TEST(ServeView, RenderReportsAgeRungsAvailabilityAndSloVerdict) {
  const ServeStatus s = serve(kServeStatusWithSlo);
  // A fresh snapshot (2.5 s old, five 500 ms heartbeats): age is
  // reported, no stale note.
  const std::string fresh = render_status(s, true, 5000000 + 2500);
  EXPECT_NE(fresh.find("(age 2.5 s)"), std::string::npos);
  EXPECT_EQ(fresh.find("stale"), std::string::npos);
  EXPECT_NE(fresh.find(
                "rungs: no_controller 6  corrupt 2  budget 3  "
                "sched_fallback 1"),
            std::string::npos);
  EXPECT_NE(fresh.find("availability 0.9500"), std::string::npos);
  EXPECT_NE(fresh.find("slo: target availability 0.9900"), std::string::npos);
  EXPECT_NE(fresh.find("burn 10.00/7.00"), std::string::npos);
  EXPECT_NE(fresh.find("slo: ALERT availability-burn"), std::string::npos);
  EXPECT_EQ(fresh.find("p99-latency"), std::string::npos);

  // Same snapshot with the alert cleared renders the quiet verdict.
  ServeStatus ok = s;
  ok.slo.alert = false;
  ok.slo.alert_availability = false;
  EXPECT_NE(render_status(ok, true).find("slo: ok"), std::string::npos);
}

// The dashboards' bytes, captured from the two renderers this module
// replaced: campaign plain and ANSI, and a serve snapshot with its SLO block
// (the serve render is the same in both modes).
TEST(StatusView, RenderPinsCampaignBytes) {
  const CampaignStatus s = campaign(kStatus);
  EXPECT_EQ(render_status(s, /*plain=*/true, 1000001),
            "campaign 00000000deadbeef  state running\n"
            "  shards [##########......................] 20/64 (31.2%)\n"
            "  resumed 4  executed 16  in-flight 4  failed 1  stalled 2\n"
            "  throughput 21.30 shards/min  eta 2m04s  elapsed 45s  "
            "threads 4\n"
            "  cache hit-rate 50% (8 hits)  trainings 2  heartbeats 45\n"
            "  ecg          [########............] 12/32  mean 2500 ms  "
            "eta 50s\n"
            "  wam          [#####...............] 8/32  mean 3000 ms  "
            "eta 1m14s\n");
  EXPECT_EQ(render_status(s, /*plain=*/false, 1000001),
            "\033[1mcampaign 00000000deadbeef\033[0m  state "
            "\033[36mrunning\033[0m\n"
            "  shards [||||||||||                      ] 20/64 (31.2%)\n"
            "  resumed 4  executed 16  in-flight 4  failed 1  stalled 2\n"
            "  throughput 21.30 shards/min  eta 2m04s  elapsed 45s  "
            "threads 4\n"
            "  cache hit-rate 50% (8 hits)  trainings 2  heartbeats 45\n"
            "  \033[2mecg         \033[0m [||||||||            ] 12/32  "
            "mean 2500 ms  eta 50s\n"
            "  \033[2mwam         \033[0m [|||||               ] 8/32  "
            "mean 3000 ms  eta 1m14s\n");
}

TEST(StatusView, RenderPinsServeBytes) {
  const std::string expected =
      "solsched-serve  state running  (age 1.2 s)\n"
      "  pid 4242  socket /tmp/solsched.sock\n"
      "  controllers 3  workers 2  queue 5/64 (peak 17)\n"
      "  requests 1000  decisions 950  fallbacks 12  reloads 2\n"
      "  rungs: no_controller 6  corrupt 2  budget 3  sched_fallback 1\n"
      "  malformed 3  shed 20  timeouts 7  errors 50  faults 0\n"
      "  latency mean 100.0 us  p50 100 us  p99 500 us  (950 samples)\n"
      "  availability 0.9500\n"
      "  slo: target availability 0.9900  target p99 5000 us  "
      "windows 30/60 s  burn alert >= 2.0\n"
      "  slo: availability 0.9000/0.9300  burn 10.00/7.00  "
      "p99 450/400 us (fast/slow)\n"
      "  slo: ALERT availability-burn\n";
  const ServeStatus s = serve(kServeStatusWithSlo);
  EXPECT_EQ(render_status(s, /*plain=*/true, 5001200), expected);
  EXPECT_EQ(render_status(s, /*plain=*/false, 5001200), expected);
}

}  // namespace
}  // namespace solsched::obs::analysis
