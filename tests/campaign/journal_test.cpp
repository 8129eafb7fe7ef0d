// Journal round trip, crash-tail tolerance and strictness everywhere else.
#include "campaign/journal.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "campaign/report.hpp"

namespace solsched::campaign {
namespace {

ShardRecord sample_record(std::size_t shard) {
  ShardRecord rec;
  rec.shard = shard;
  rec.key = "ecg/s" + std::to_string(shard) + "/i0.5";
  rec.workload = "ecg";
  rec.seed = shard;
  rec.intensity = 0.5;
  rec.artifact_key = 0xdeadbeefULL;
  rec.artifact_hit = shard % 2 == 0;
  // Full-width value: the hex-string encoding must round-trip bits a JSON
  // number (via double) would lose.
  rec.controller_fingerprint = 0xFEDCBA9876543210ULL + shard;
  ShardRow row;
  row.algo = "Proposed";
  row.dmr = 0.0625 + 1e-17 * static_cast<double>(shard);  // Exercise %.17g.
  row.energy_utilization = 0.71234567890123456;
  row.migration_efficiency = 0.5;
  row.brownouts = 3;
  row.solar_j = 1234.5678901234567;
  row.served_j = 1000.0 / 3.0;
  row.loss_j = 7.25;
  row.power_failure_slots = 11;
  row.fallbacks = 2;
  rec.rows.push_back(row);
  return rec;
}

std::string fresh_path(const char* name) {
  const std::string path = ::testing::TempDir() + "/" + name;
  std::remove(path.c_str());
  return path;
}

/// What Journal::load throws for `path`; "" when it loads.
std::string load_error(const std::string& path, std::uint64_t spec_digest) {
  try {
    Journal::load(path, spec_digest);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

TEST(Journal, AppendLoadRoundTripIsExact) {
  const std::string path = fresh_path("journal_roundtrip.jsonl");
  {
    Journal journal(path, 0x1234);
    journal.append(sample_record(0));
    journal.append(sample_record(1));
    // Full-width artifact keys are plain JSON numbers: they must come back
    // from their digits, not through a double (which would round
    // 18008753236730021613 to ...1888).
    ShardRecord widest = sample_record(2);
    widest.artifact_key = ~0ULL;
    journal.append(widest);
    ShardRecord fnv = sample_record(3);
    fnv.artifact_key = 18008753236730021613ULL;
    fnv.seed = ~0ULL;
    journal.append(fnv);
  }
  const Journal::Recovered rec = Journal::load(path, 0x1234);
  EXPECT_EQ(rec.dropped_partial, 0u);
  ASSERT_EQ(rec.records.size(), 4u);
  EXPECT_EQ(rec.records[2].artifact_key, ~0ULL);
  EXPECT_EQ(rec.records[3].artifact_key, 18008753236730021613ULL);
  EXPECT_EQ(rec.records[3].seed, ~0ULL);
  const ShardRecord& a = rec.records[0];
  const ShardRecord expect = sample_record(0);
  EXPECT_EQ(a.key, expect.key);
  EXPECT_EQ(a.artifact_key, expect.artifact_key);
  EXPECT_TRUE(a.artifact_hit);
  EXPECT_EQ(a.controller_fingerprint, expect.controller_fingerprint);
  ASSERT_EQ(a.rows.size(), 1u);
  // Bit-exact double round trip (%.17g out, strtod in).
  EXPECT_EQ(a.rows[0].dmr, expect.rows[0].dmr);
  EXPECT_EQ(a.rows[0].served_j, expect.rows[0].served_j);
  EXPECT_EQ(a.rows[0].energy_utilization, expect.rows[0].energy_utilization);
  EXPECT_EQ(a.rows[0].brownouts, 3u);
}

TEST(Journal, ReopenAppendsWithoutSecondHeader) {
  const std::string path = fresh_path("journal_reopen.jsonl");
  { Journal(path, 7).append(sample_record(0)); }
  { Journal(path, 7).append(sample_record(1)); }
  const Journal::Recovered rec = Journal::load(path, 7);
  EXPECT_EQ(rec.records.size(), 2u);
  std::ifstream file(path);
  std::string line;
  std::size_t headers = 0;
  ASSERT_TRUE(std::getline(file, line));
  // The envelope's exact bytes: kind, magic and the 16-digit hex digest.
  EXPECT_EQ(line,
            "{\"journal\": \"solsched-campaign-journal-v1\", "
            "\"spec_digest\": \"0000000000000007\"}");
  do {
    if (line.find("spec_digest") != std::string::npos) ++headers;
  } while (std::getline(file, line));
  EXPECT_EQ(headers, 1u);
}

TEST(Journal, TruncatedTailIsDroppedAndRecoverable) {
  const std::string path = fresh_path("journal_torn.jsonl");
  {
    Journal journal(path, 9);
    journal.append(sample_record(0));
    journal.append(sample_record(1));
  }
  std::ofstream(path, std::ios::app) << "{\"shard\": 2, \"key\": \"tor";
  const Journal::Recovered rec = Journal::load(path, 9);
  EXPECT_EQ(rec.dropped_partial, 1u);
  ASSERT_EQ(rec.records.size(), 2u);
  // Reopening truncates the torn fragment before appending, so the resumed
  // shard's record lands on its own line and the journal is whole again.
  { Journal(path, 9).append(sample_record(2)); }
  const Journal::Recovered healed = Journal::load(path, 9);
  EXPECT_EQ(healed.records.size(), 3u);
  EXPECT_EQ(healed.dropped_partial, 0u);
}

TEST(Journal, GarbageMidFileIsFatal) {
  const std::string path = fresh_path("journal_garbage.jsonl");
  { Journal(path, 9).append(sample_record(0)); }
  std::ofstream(path, std::ios::app) << "not json\n";
  { Journal(path, 9).append(sample_record(1)); }
  EXPECT_THROW(Journal::load(path, 9), std::runtime_error);
}

TEST(Journal, SpecDigestMismatchIsFatal) {
  const std::string path = fresh_path("journal_digest.jsonl");
  { Journal(path, 1).append(sample_record(0)); }
  EXPECT_NE(load_error(path, 2).find(
                "spec digest mismatch: journal has 0000000000000001, "
                "campaign spec is 0000000000000002"),
            std::string::npos)
      << load_error(path, 2);
  EXPECT_EQ(Journal::load(path, 0).records.size(), 1u);  // 0 skips the check.
  EXPECT_EQ(load_journal_records(path).size(), 1u);
}

TEST(Journal, UnknownHeaderIsFatal) {
  const std::string path = fresh_path("journal_header.jsonl");
  std::ofstream(path) << "{\"telemetry\": \"solsched-campaign-journal-v1\"}\n";
  EXPECT_NE(load_error(path, 0).find(
                "missing or unknown header (expected "
                "\"solsched-campaign-journal-v1\")"),
            std::string::npos)
      << load_error(path, 0);
}

// An integer field that is not plain digits below 2^64 is an error naming
// the line, never a wrapped or truncated value.
TEST(Journal, NonIntegerCountsAreFatal) {
  const std::string good = sample_record(0).to_json();
  const std::string shard0 = "{\"shard\": 0,";
  ASSERT_EQ(good.rfind(shard0, 0), 0u);
  for (const char* bad : {"-1", "1e300", "0.5", "18446744073709551616"}) {
    SCOPED_TRACE(bad);
    const std::string path = fresh_path("journal_bad_int.jsonl");
    { Journal(path, 9).append(sample_record(1)); }
    std::ofstream(path, std::ios::app)
        << "{\"shard\": " << bad << good.substr(shard0.size() - 1) << "\n";
    EXPECT_NE(load_error(path, 9).find(
                  "line 3: \"shard\" is not an unsigned integer"),
              std::string::npos)
        << load_error(path, 9);
  }
  const std::string path = fresh_path("journal_bad_row.jsonl");
  std::string row_bad = good;
  const std::string brownouts = "\"brownouts\": 3";
  row_bad.replace(row_bad.find(brownouts), brownouts.size(),
                  "\"brownouts\": -3");
  { Journal(path, 9); }
  std::ofstream(path, std::ios::app) << row_bad << "\n";
  EXPECT_NE(load_error(path, 9).find(
                "line 2: \"brownouts\" is not an unsigned integer"),
            std::string::npos)
      << load_error(path, 9);
}

TEST(Journal, DuplicateShardIsFatal) {
  const std::string path = fresh_path("journal_dup.jsonl");
  {
    Journal journal(path, 9);
    journal.append(sample_record(3));
    journal.append(sample_record(3));
  }
  EXPECT_THROW(Journal::load(path, 9), std::runtime_error);
}

TEST(Journal, MissingFileIsFatal) {
  EXPECT_THROW(Journal::load("/no_such_dir_xyz/journal.jsonl", 0),
               std::runtime_error);
}

}  // namespace
}  // namespace solsched::campaign
