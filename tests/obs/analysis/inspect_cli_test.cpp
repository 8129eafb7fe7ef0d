// The solsched-inspect command line end to end through run_inspect: exit
// codes for each command, usage and I/O errors, and strict numeric flag
// parsing.
#include "obs/analysis/inspect.hpp"

#include <gtest/gtest.h>

#include <cstdio>
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

  // A daemon snapshot written at wall_ms 5000000: fresh one second later
  // under a 5 s bound, stale under a 500 ms bound.
  const std::string status = write_temp(
      "status.json",
      "{\"status\": \"solsched-serve-v1\", \"state\": \"running\", "
      "\"wall_ms\": 5000000, \"pid\": 1, \"socket\": \"s\"}");
  EXPECT_EQ(run({"serve", status, "--now-ms", "5001000", "--max-age-ms",
                 "5000"}),
            0);
  EXPECT_EQ(run({"serve", status, "--now-ms", "5001000", "--max-age-ms",
                 "500"}),
            1);
  EXPECT_EQ(run({"serve", status, "--now-ms", "5001000", "--max-age-ms",
                 "5000x"}),
            2);
  EXPECT_EQ(run({"serve", status, "--now-ms", "5001000x"}), 2);
  EXPECT_EQ(run({"serve", status, "--now-ms", "-1"}), 2);
  EXPECT_EQ(run({"serve", status, "--max-age-ms", "1e3"}), 2);

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
