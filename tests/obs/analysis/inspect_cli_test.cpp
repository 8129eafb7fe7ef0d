// The solsched-inspect command line end to end through run_inspect: exit
// codes for each command, usage and I/O errors, and strict numeric flag
// parsing.
#include "obs/analysis/inspect.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

namespace solsched::obs::analysis {
namespace {

class InspectCli : public ::testing::Test {
 protected:
  std::string write_temp(const std::string& name, const std::string& body) {
    const std::string path = ::testing::TempDir() + "inspect_" + name;
    std::ofstream(path) << body;
    paths_.push_back(path);
    return path;
  }

  int run(std::vector<std::string> args) {
    std::vector<const char*> argv = {"solsched-inspect"};
    for (const std::string& a : args) argv.push_back(a.c_str());
    return run_inspect(static_cast<int>(argv.size()), argv.data());
  }

  void TearDown() override {
    for (const std::string& p : paths_) std::remove(p.c_str());
  }

  std::vector<std::string> paths_;
};

// A minimal trace whose single period balances exactly: 1.0 in, 0.4 served,
// 0.1 conversion loss, bank 2.0 -> 2.5.
const char kBalancedTrace[] =
    "{\"type\":\"bank_energy\",\"day\":0,\"period\":0,"
    "\"begin_j\":2,\"end_j\":2.5}\n"
    "{\"type\":\"period_energy\",\"day\":0,\"period\":0,"
    "\"solar_in_j\":1,\"load_served_j\":0.4,\"conversion_loss_j\":0.1,"
    "\"leakage_loss_j\":0,\"spilled_j\":0}\n"
    "{\"type\":\"deadline\",\"day\":0,\"period\":0,"
    "\"misses\":1,\"completions\":4,\"dmr\":0.2,\"brownout_slots\":2}\n";

TEST_F(InspectCli, SummaryLedgerAndDmrSucceedOnBalancedTrace) {
  const std::string trace = write_temp("ok.jsonl", kBalancedTrace);
  EXPECT_EQ(run({"summary", trace}), 0);
  EXPECT_EQ(run({"ledger", trace}), 0);
  EXPECT_EQ(run({"ledger", trace, "--max-rows", "1"}), 0);
  EXPECT_EQ(run({"dmr", trace}), 0);
}

TEST_F(InspectCli, LedgerFailsOnUnbalancedTrace) {
  // Same trace with half a joule of unledgered inflow.
  std::string bad = kBalancedTrace;
  const std::string needle = "\"solar_in_j\":1";
  bad.replace(bad.find(needle), needle.size(), "\"solar_in_j\":1.5");
  const std::string trace = write_temp("bad.jsonl", bad);
  EXPECT_EQ(run({"ledger", trace}), 1);
}

TEST_F(InspectCli, DiffReportsAgreementAndDivergence) {
  const std::string a = write_temp(
      "a.json", "{\"workload\": \"x\", \"seeds\": [1, 2]}");
  const std::string same = write_temp(
      "same.json", "{\"workload\": \"x\", \"seeds\": [1, 2]}");
  const std::string b = write_temp(
      "b.json", "{\"workload\": \"y\", \"seeds\": [1, 2]}");
  EXPECT_EQ(run({"diff", a, same}), 0);
  EXPECT_EQ(run({"diff", a, b}), 1);
}

TEST_F(InspectCli, UsageAndErrorExitCodes) {
  EXPECT_EQ(run({}), 2);
  EXPECT_EQ(run({"--help"}), 0);
  EXPECT_EQ(run({"no-such-command"}), 2);
  EXPECT_EQ(run({"summary"}), 2);                    // Missing argument.
  EXPECT_EQ(run({"summary", "/no/such/file"}), 2);   // I/O error.
  const std::string garbage = write_temp("garbage.json", "not json");
  EXPECT_EQ(run({"diff", garbage, garbage}), 2);     // Parse error.
  EXPECT_EQ(run({"watch"}), 2);                      // Missing argument.
  EXPECT_EQ(run({"watch", garbage, garbage}), 2);    // Two paths.
  EXPECT_EQ(run({"watch", garbage, "--follow"}), 2);  // Unknown flag.
}

// A campaign snapshot in `state`, written at `wall_ms`.
std::string campaign_status(const std::string& state,
                            const std::string& wall_ms = "5000000") {
  return "{\"status\": \"solsched-campaign-status-v1\", \"state\": \"" +
         state + "\", \"wall_ms\": " + wall_ms +
         ", \"heartbeat_ms\": 1000, \"stall_ms\": 30000}";
}

// A serve snapshot in `state`, written at `wall_ms` by a daemon that
// rewrites it every `heartbeat_ms`.
std::string serve_status(const std::string& state, const std::string& wall_ms,
                         const std::string& heartbeat_ms = "500") {
  return "{\"status\": \"solsched-serve-v1\", \"state\": \"" + state +
         "\", \"wall_ms\": " + wall_ms + ", \"heartbeat_ms\": " +
         heartbeat_ms + "}";
}

// `watch` exits with the final snapshot's code. A terminal state ends the
// watch whatever the clock says, so none of these depends on when it runs.
TEST_F(InspectCli, WatchExitsWithTheFinalSnapshotsCode) {
  const std::string finished =
      write_temp("finished.json", campaign_status("finished"));
  EXPECT_EQ(run({"watch", finished, "--plain", "--once"}), 0);
  EXPECT_EQ(run({"watch", finished, "--plain"}), 0);  // Terminal: no poll.
  const std::string failed =
      write_temp("failed.json", campaign_status("failed"));
  EXPECT_EQ(run({"watch", failed, "--plain", "--once"}), 1);
  const std::string stopped =
      write_temp("stopped.json", campaign_status("stopped"));
  EXPECT_EQ(run({"watch", stopped, "--plain", "--once"}), 3);  // Resume me.
  const std::string serve_stopped =
      write_temp("serve_stopped.json", serve_status("stopped", "1"));
  EXPECT_EQ(run({"watch", serve_stopped, "--once"}), 0);

  // A directory means <dir>/status.json.
  const std::string dir = ::testing::TempDir() + "inspect_watch_dir";
  std::filesystem::create_directories(dir);
  std::ofstream(dir + "/status.json") << campaign_status("finished");
  EXPECT_EQ(run({"watch", dir, "--plain", "--once"}), 0);
  std::filesystem::remove_all(dir);
}

// A "running" snapshot older than five heartbeats is stale: its writer is
// gone (exit 3, with a note on stderr). One written "in the future" (the
// writer's clock runs ahead) is fresh, and --once still exits 3 for it:
// the run is incomplete from this vantage.
TEST_F(InspectCli, WatchFlagsStaleRunningSnapshots) {
  const std::string dead =
      write_temp("dead.json", serve_status("running", "1", "50"));
  ::testing::internal::CaptureStdout();
  ::testing::internal::CaptureStderr();
  EXPECT_EQ(run({"watch", dead, "--once"}), 3);
  std::string out = ::testing::internal::GetCapturedStdout();
  std::string err = ::testing::internal::GetCapturedStderr();
  EXPECT_NE(out.find("(stale: daemon gone?)"), std::string::npos) << out;
  EXPECT_NE(err.find("status is stale"), std::string::npos) << err;

  const std::string ahead = write_temp(
      "ahead.json", serve_status("running", "4102444800000", "50"));
  ::testing::internal::CaptureStdout();
  ::testing::internal::CaptureStderr();
  EXPECT_EQ(run({"watch", ahead, "--once"}), 3);
  out = ::testing::internal::GetCapturedStdout();
  err = ::testing::internal::GetCapturedStderr();
  EXPECT_EQ(out.find("stale"), std::string::npos) << out;
  EXPECT_EQ(err.find("stale"), std::string::npos) << err;
}

TEST_F(InspectCli, WatchOnceRefusesMissingOrUnknownFiles) {
  EXPECT_EQ(run({"watch", ::testing::TempDir() + "inspect_no_such.json",
                 "--once"}),
            2);
  const std::string unknown = write_temp(
      "unknown.json", "{\"status\": \"solsched-serve-v2\", "
                      "\"state\": \"stopped\"}");
  EXPECT_EQ(run({"watch", unknown, "--once"}), 2);
}

// Every numeric flag goes through one strict parser: a sign, trailing text,
// leading whitespace or overflow is a usage error (exit 2) naming the flag,
// never a wrapped or truncated value that runs anyway.
TEST_F(InspectCli, NumericFlagsRejectSignsGarbageAndOverflow) {
  const std::string trace = write_temp("flags.jsonl", kBalancedTrace);
  EXPECT_EQ(run({"ledger", trace, "--max-rows", "1"}), 0);
  EXPECT_EQ(run({"ledger", trace, "--max-rows", "0"}), 0);
  EXPECT_EQ(run({"ledger", trace, "--max-rows", "-1"}), 2);
  EXPECT_EQ(run({"ledger", trace, "--max-rows", "+1"}), 2);
  EXPECT_EQ(run({"ledger", trace, "--max-rows", " 1"}), 2);
  EXPECT_EQ(run({"ledger", trace, "--max-rows", "3junk"}), 2);
  EXPECT_EQ(run({"ledger", trace, "--max-rows", ""}), 2);
  EXPECT_EQ(run({"ledger", trace, "--max-rows", "99999999999999999999"}), 2);

  // A stopped daemon: watch exits 0 at once, whatever the poll cadence.
  const std::string status = write_temp(
      "status.json",
      "{\"status\": \"solsched-serve-v1\", \"state\": \"stopped\", "
      "\"wall_ms\": 5000000}");
  EXPECT_EQ(run({"watch", status, "--interval-ms", "100"}), 0);
  EXPECT_EQ(run({"watch", status, "--interval-ms", "100x"}), 2);
  EXPECT_EQ(run({"watch", status, "--interval-ms", "-1"}), 2);
  EXPECT_EQ(run({"watch", status, "--interval-ms", "1e3"}), 2);
  EXPECT_EQ(run({"watch", status, "--interval-ms", "0"}), 2);
  EXPECT_EQ(run({"watch", status, "--interval-ms"}), 2);  // No value.
  EXPECT_EQ(run({"watch", status, "--interval-ms", "99999999999999999999"}),
            2);

  // One traced client span, id 0xabc.
  const std::string dump = write_temp(
      "dump.json",
      "{\"traceEvents\":[{\"name\":\"serve.client.request\",\"ph\":\"X\","
      "\"pid\":1,\"tid\":1,\"ts\":1000,\"dur\":900,"
      "\"args\":{\"trace\":\"0xabc\"}}]}");
  EXPECT_EQ(run({"timeline", dump, "--trace-id", "0xabc"}), 0);
  EXPECT_EQ(run({"timeline", dump, "--trace-id", "2748"}), 0);  // Decimal.
  EXPECT_EQ(run({"timeline", dump, "--trace-id", "0xabd"}), 1);  // Absent.
  EXPECT_EQ(run({"timeline", dump, "--trace-id", "0xabczz"}), 2);
  EXPECT_EQ(run({"timeline", dump, "--trace-id", "0x12zz"}), 2);
  EXPECT_EQ(run({"timeline", dump, "--trace-id", "-0xabc"}), 2);
  EXPECT_EQ(run({"timeline", dump, "--trace-id", "0x"}), 2);
  EXPECT_EQ(run({"timeline", dump, "--trace-id", "0x+abc"}), 2);
  EXPECT_EQ(run({"ledger", trace, "--max-rows", "0x1"}), 2);  // Decimal only.
  EXPECT_EQ(run({"timeline", dump, "--trace-id",
                 "0x10000000000000000"}),
            2);
}

}  // namespace
}  // namespace solsched::obs::analysis
