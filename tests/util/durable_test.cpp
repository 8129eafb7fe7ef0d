// Durable-file layer: write_atomic, AppendLog and replay_lines on their own,
// then every append-log consumer (campaign journal, telemetry stream, tsdb
// ring) truncated at every byte offset. A reload must give exactly a prefix
// of the complete records, and a reopened log must append cleanly after
// its heal.
#include "util/durable.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cerrno>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "../test_helpers.hpp"
#include "campaign/journal.hpp"
#include "obs/telemetry.hpp"
#include "obs/tsdb.hpp"

namespace solsched::util {
namespace {

std::string fresh_dir(const char* name) {
  const std::string dir = ::testing::TempDir() + "/durable_" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

void spit(const std::string& path, std::string_view bytes) {
  std::ofstream(path, std::ios::binary | std::ios::trunc)
      .write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

std::size_t count_newlines(std::string_view text) {
  return static_cast<std::size_t>(std::count(text.begin(), text.end(), '\n'));
}

using test::FileSizeLimit;

// ---- write_atomic ----------------------------------------------------------

TEST(WriteAtomic, ReplacesTheWholeFileAndLeavesNoTmp) {
  const std::string dir = fresh_dir("replace");
  const std::string path = dir + "/snapshot.json";
  write_atomic(path, "first, longer contents\n");
  write_atomic(path, "second\n");
  EXPECT_EQ(slurp(path), "second\n");
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  write_atomic("relative_durable_probe.txt", "no directory part\n");
  EXPECT_EQ(slurp("relative_durable_probe.txt"), "no directory part\n");
  std::filesystem::remove("relative_durable_probe.txt");
}

TEST(WriteAtomic, FailedWriteKeepsTheOldTargetAndRemovesTheTmp) {
  const std::string dir = fresh_dir("write_fails");
  const std::string path = dir + "/snapshot.json";
  write_atomic(path, "old\n");
  try {
    const FileSizeLimit limit(16);
    write_atomic(path, std::string(4096, 'x'));
    ADD_FAILURE() << "a write past RLIMIT_FSIZE must throw";
  } catch (const IoError& e) {
    EXPECT_EQ(e.step(), "write");
    EXPECT_EQ(e.error_number(), EFBIG);
    EXPECT_EQ(e.path(), path);
  }
  EXPECT_EQ(slurp(path), "old\n");
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
}

TEST(WriteAtomic, DirectoryTargetFailsAtRenameAndRemovesTheTmp) {
  const std::string dir = fresh_dir("dir_target");
  const std::string path = dir + "/status_dir";
  std::filesystem::create_directories(path + "/keep");
  try {
    write_atomic(path, "body\n");
    ADD_FAILURE() << "renaming a file over a directory must throw";
  } catch (const IoError& e) {
    EXPECT_EQ(e.step(), "rename");
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos);
  }
  EXPECT_TRUE(std::filesystem::is_directory(path + "/keep"));
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
}

TEST(WriteAtomic, UnwritableDirectoryFailsAtOpen) {
  // The "directory" is a regular file: nothing can be created below it,
  // whatever the caller's privileges.
  const std::string dir = fresh_dir("unwritable");
  spit(dir + "/not_a_dir", "file\n");
  try {
    write_atomic(dir + "/not_a_dir/snapshot.json", "body\n");
    ADD_FAILURE() << "a target below a regular file must throw";
  } catch (const IoError& e) {
    EXPECT_EQ(e.step(), "open tmp");
    EXPECT_EQ(e.error_number(), ENOTDIR);
  }
  EXPECT_EQ(slurp(dir + "/not_a_dir"), "file\n");
  EXPECT_THROW(write_atomic(dir + "/missing/snapshot.json", "x"), IoError);
}

TEST(WriteAtomic, SpecialFileTargetIsWrittenInPlace) {
  write_atomic("/dev/null", "discarded\n");
  EXPECT_TRUE(std::filesystem::is_character_file("/dev/null"));
  EXPECT_FALSE(std::filesystem::exists("/dev/null.tmp"));
}

// ---- AppendLog -------------------------------------------------------------

TEST(AppendLog, HeaderOnlyWhenFreshAndTornTailHealedOnOpen) {
  const std::string path = fresh_dir("append") + "/log.jsonl";
  {
    AppendLog log(path, "H\n");
    log.append("a\n", /*sync=*/true);
  }
  { AppendLog(path, "H\n").append("b\n", /*sync=*/false); }
  EXPECT_EQ(slurp(path), "H\na\nb\n");
  std::ofstream(path, std::ios::app) << "torn-with-no-newline";
  { AppendLog(path, "H\n").append("c\n", /*sync=*/false); }
  EXPECT_EQ(slurp(path), "H\na\nb\nc\n");
  // A file torn inside its header heals to empty and gets a new header.
  spit(path, "H-part");
  { AppendLog(path, "H\n").append("d\n", /*sync=*/false); }
  EXPECT_EQ(slurp(path), "H\nd\n");
}

TEST(AppendLog, TornTailLongerThanOneReadChunkIsHealed) {
  const std::string path = fresh_dir("append_long") + "/log.jsonl";
  spit(path, "H\nkept\n" + std::string(10000, 'z'));
  { AppendLog(path, "H\n").append("next\n", /*sync=*/false); }
  EXPECT_EQ(slurp(path), "H\nkept\nnext\n");
  spit(path, std::string(10000, 'z'));  // No newline at all.
  { AppendLog(path, "H\n").append("next\n", /*sync=*/false); }
  EXPECT_EQ(slurp(path), "H\nnext\n");
}

TEST(AppendLog, FailedAppendThrowsTypedError) {
  const std::string path = fresh_dir("append_fails") + "/log.jsonl";
  AppendLog log(path, "H\n");
  const FileSizeLimit limit(8);
  try {
    log.append(std::string(64, 'x') + "\n", /*sync=*/true);
    ADD_FAILURE() << "an append past RLIMIT_FSIZE must throw";
  } catch (const IoError& e) {
    EXPECT_EQ(e.step(), "write");
    EXPECT_EQ(e.path(), path);
  }
}

TEST(AppendLog, OpenFailureIsTyped) {
  const std::string dir = fresh_dir("append_open");
  std::filesystem::create_directories(dir + "/log.jsonl");
  EXPECT_THROW(AppendLog(dir + "/log.jsonl", "H\n"), IoError);
  EXPECT_THROW(AppendLog(dir + "/missing/log.jsonl", "H\n"), IoError);
}

TEST(AppendLog, ConcurrentAppendsComeBackWhole) {
  const std::string path = fresh_dir("append_concurrent") + "/log.jsonl";
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kLines = 200;
  const auto line_of = [](std::size_t t, std::size_t i) {
    // Lengths vary so that interleaved partial writes could not line up.
    return "t" + std::to_string(t) + " i" + std::to_string(i) + " " +
           std::string(1 + (t * 37 + i * 11) % 300,
                       static_cast<char>('a' + t)) +
           "\n";
  };
  {
    AppendLog log(path, "H\n");
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kThreads; ++t)
      threads.emplace_back([&, t] {
        for (std::size_t i = 0; i < kLines; ++i)
          log.append(line_of(t, i), /*sync=*/i % 50 == 0);
      });
    for (std::thread& thread : threads) thread.join();
  }
  std::set<std::string> expected;
  for (std::size_t t = 0; t < kThreads; ++t)
    for (std::size_t i = 0; i < kLines; ++i) expected.insert(line_of(t, i));
  std::set<std::string> seen;
  bool header = true;
  const std::size_t dropped = replay_lines(
      slurp(path), path, [&](std::string_view line, std::size_t) {
        if (header) {
          header = false;
          return line == "H";
        }
        const std::string whole = std::string(line) + "\n";
        EXPECT_EQ(expected.count(whole), 1u) << "glued or torn: " << line;
        EXPECT_TRUE(seen.insert(whole).second) << "duplicate: " << line;
        return true;
      });
  EXPECT_EQ(dropped, 0u);
  EXPECT_EQ(seen.size(), expected.size());
}

// ---- replay_lines ----------------------------------------------------------

TEST(ReplayLines, ForgivesOnlyTheFinalLineAndNamesEarlierDamage) {
  const auto digits = [](std::vector<std::string>* out) {
    return [out](std::string_view line, std::size_t) {
      if (line.find_first_not_of("0123456789") != std::string_view::npos)
        return false;
      out->emplace_back(line);
      return true;
    };
  };
  std::vector<std::string> got;
  EXPECT_EQ(replay_lines("1\n\n2\n", "t", digits(&got)), 0u);
  EXPECT_EQ(got, (std::vector<std::string>{"1", "2"}));

  got.clear();  // A bad final line is the torn tail.
  EXPECT_EQ(replay_lines("1\nbad\n\n", "t", digits(&got)), 1u);
  EXPECT_EQ(got, (std::vector<std::string>{"1"}));

  got.clear();  // An unterminated fragment is never parsed, even if valid.
  EXPECT_EQ(replay_lines("1\n22", "t", digits(&got)), 1u);
  EXPECT_EQ(got, (std::vector<std::string>{"1"}));
  EXPECT_EQ(replay_lines("", "t", digits(&got)), 0u);

  try {
    replay_lines("1\nbad\n3\n", "my.log", digits(&got));
    ADD_FAILURE() << "a bad line before a valid one must throw";
  } catch (const ReplayError& e) {
    EXPECT_EQ(e.line_no(), 2u);
    EXPECT_NE(std::string(e.what()).find("my.log"), std::string::npos);
  }
  // A bad complete line followed by a torn fragment is not the tail.
  EXPECT_THROW(replay_lines("1\nbad\n3", "t", digits(&got)), ReplayError);
  EXPECT_THROW(replay_lines("bad\nbad\n", "t", digits(&got)), ReplayError);
}

// ---- every consumer, torn at every byte -------------------------------------

campaign::ShardRecord record(std::size_t shard) {
  campaign::ShardRecord rec;
  rec.shard = shard;
  rec.key = "ecg/s" + std::to_string(shard);
  rec.workload = "ecg";
  rec.seed = shard;
  rec.intensity = 0.25 * static_cast<double>(shard);
  rec.artifact_key = 0xabcULL;
  rec.controller_fingerprint = 0xFEDCBA9876543210ULL + shard;
  campaign::ShardRow row;
  row.algo = "proposed";
  row.dmr = 1.0 / 3.0 + static_cast<double>(shard);
  rec.rows.push_back(row);
  return rec;
}

TEST(TornAtEveryByte, JournalLoadsAPrefixAndResumesCleanly) {
  constexpr std::uint64_t kDigest = 0x5eed;
  const std::string path = fresh_dir("journal") + "/journal.jsonl";
  {
    campaign::Journal journal(path, kDigest);
    for (std::size_t s = 0; s < 3; ++s) journal.append(record(s));
  }
  const std::string whole = slurp(path);
  const std::string header = whole.substr(0, whole.find('\n') + 1);
  const std::string extra = record(7).to_json() + "\n";
  for (std::size_t cut = 0; cut <= whole.size(); ++cut) {
    SCOPED_TRACE("cut at byte " + std::to_string(cut));
    const std::string_view prefix(whole.data(), cut);
    spit(path, prefix);
    const std::size_t lines = count_newlines(prefix);
    const std::size_t complete = lines > 0 ? lines - 1 : 0;
    const bool torn = cut > 0 && whole[cut - 1] != '\n';

    const campaign::Journal::Recovered loaded =
        campaign::Journal::load(path, kDigest);
    ASSERT_EQ(loaded.records.size(), complete);
    for (std::size_t i = 0; i < complete; ++i)
      ASSERT_EQ(loaded.records[i].to_json(), record(i).to_json());
    EXPECT_EQ(loaded.dropped_partial, torn ? 1u : 0u);

    { campaign::Journal(path, kDigest).append(record(7)); }
    const std::string kept =
        lines == 0 ? header
                   : std::string(prefix.substr(0, prefix.rfind('\n') + 1));
    ASSERT_EQ(slurp(path), kept + extra);
    const campaign::Journal::Recovered resumed =
        campaign::Journal::load(path, kDigest);
    ASSERT_EQ(resumed.records.size(), complete + 1);
    EXPECT_EQ(resumed.records.back().to_json(), record(7).to_json());
    EXPECT_EQ(resumed.dropped_partial, 0u);
  }
}

TEST(TornAtEveryByte, TelemetryLoadsAPrefixAndReopenedLogAppendsCleanly) {
  const std::string dir = fresh_dir("telemetry");
  const std::string path = dir + "/telemetry.jsonl";
  {
    obs::TelemetryBus::Options opt;
    opt.dir = dir;
    opt.spec_digest = "00000000deadbeef";
    opt.heartbeat_ms = 0;
    obs::TelemetryBus bus(opt);
    bus.campaign_start(1, {{"ecg", 1}}, {});
    bus.shard_claimed(0, "ecg", "feedface");
    bus.sim_start(0);
    bus.shard_done(0, false);
    bus.campaign_finish(true);
  }
  const std::string whole = slurp(path);
  const std::string header = whole.substr(0, whole.find('\n') + 1);
  const obs::TelemetryLog full = obs::load_telemetry(whole);
  ASSERT_EQ(full.events.size(), 5u);
  const std::string extra =
      "{\"seq\": 99, \"ts_ms\": 1, \"type\": \"heartbeat\"}\n";
  for (std::size_t cut = 0; cut <= whole.size(); ++cut) {
    SCOPED_TRACE("cut at byte " + std::to_string(cut));
    const std::string prefix = whole.substr(0, cut);
    const std::size_t lines = count_newlines(prefix);
    const std::size_t complete = lines > 0 ? lines - 1 : 0;

    const obs::TelemetryLog log = obs::load_telemetry(prefix);
    ASSERT_EQ(log.events.size(), complete);
    for (std::size_t i = 0; i < complete; ++i) {
      EXPECT_EQ(log.events[i].seq, full.events[i].seq);
      EXPECT_EQ(log.events[i].type, full.events[i].type);
    }
    EXPECT_EQ(log.dropped_partial,
              prefix.empty() || prefix.back() == '\n' ? 0u : 1u);

    spit(path, prefix);
    { AppendLog(path, header).append(extra, /*sync=*/false); }
    const std::string kept =
        lines == 0 ? header : prefix.substr(0, prefix.rfind('\n') + 1);
    ASSERT_EQ(slurp(path), kept + extra);
    const obs::TelemetryLog reopened = obs::load_telemetry(slurp(path));
    ASSERT_EQ(reopened.events.size(), complete + 1);
    EXPECT_EQ(reopened.events.back().seq, 99u);
    EXPECT_EQ(reopened.dropped_partial, 0u);
  }
}

TEST(TornAtEveryByte, TimeseriesRingLoadsAPrefix) {
  const std::string path = fresh_dir("tsdb") + "/timeseries.jsonl";
  obs::TimeseriesStore store(4);
  for (std::uint64_t t = 1; t <= 3; ++t) {
    obs::MetricsSnapshot s;
    s.counters.emplace_back("serve.requests", 10 * t);
    s.gauges.emplace_back("serve.queue", 0.5 * static_cast<double>(t));
    store.sample(1000 * t, s);
  }
  ASSERT_TRUE(store.write_jsonl(path));
  const std::string whole = slurp(path);
  for (std::size_t cut = 0; cut <= whole.size(); ++cut) {
    SCOPED_TRACE("cut at byte " + std::to_string(cut));
    spit(path, std::string_view(whole.data(), cut));
    std::vector<obs::TimeseriesPoint> points;
    std::string error;
    ASSERT_TRUE(obs::TimeseriesStore::read_jsonl(path, &points, &error))
        << error;
    const std::size_t complete =
        count_newlines(std::string_view(whole.data(), cut));
    ASSERT_EQ(points.size(), complete);
    for (std::size_t i = 0; i < complete; ++i) {
      EXPECT_EQ(points[i].wall_ms, store.at(i).wall_ms);
      EXPECT_EQ(points[i].values, store.at(i).values);
    }
  }
}

}  // namespace
}  // namespace solsched::util
