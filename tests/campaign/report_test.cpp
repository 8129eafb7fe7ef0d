// Aggregate report: grouping, quantiles, and byte-stable JSON.
#include "campaign/report.hpp"

#include <gtest/gtest.h>

namespace solsched::campaign {
namespace {

ShardRecord record(std::size_t shard, const std::string& workload,
                   double intensity, double dmr) {
  ShardRecord rec;
  rec.shard = shard;
  rec.workload = workload;
  rec.seed = shard;
  rec.intensity = intensity;
  rec.key = workload + "/s" + std::to_string(shard);
  ShardRow row;
  row.algo = "Proposed";
  row.dmr = dmr;
  row.energy_utilization = 0.5;
  row.brownouts = 1;
  rec.rows.push_back(row);
  return rec;
}

TEST(CampaignReport, SingleAxisValueOmitsRedundantGroups) {
  const std::vector<ShardRecord> records = {record(0, "ecg", 0.0, 0.1),
                                            record(1, "ecg", 0.0, 0.3)};
  const std::vector<GroupAggregate> groups = aggregate(records);
  ASSERT_EQ(groups.size(), 1u);  // Only "all": one workload, one intensity.
  EXPECT_EQ(groups[0].group, "all");
  ASSERT_EQ(groups[0].algos.size(), 1u);
  const AlgoAggregate& agg = groups[0].algos[0];
  EXPECT_EQ(agg.n, 2u);
  EXPECT_DOUBLE_EQ(agg.dmr.mean, 0.2);
  EXPECT_DOUBLE_EQ(agg.dmr.min, 0.1);
  EXPECT_DOUBLE_EQ(agg.dmr.max, 0.3);
  EXPECT_EQ(agg.brownouts, 2u);
}

TEST(CampaignReport, GroupsPerWorkloadAndIntensity) {
  const std::vector<ShardRecord> records = {
      record(0, "ecg", 0.0, 0.1), record(1, "ecg", 1.0, 0.2),
      record(2, "wam", 0.0, 0.3), record(3, "wam", 1.0, 0.4)};
  const std::vector<GroupAggregate> groups = aggregate(records);
  ASSERT_EQ(groups.size(), 5u);  // all + 2 workloads + 2 intensities.
  EXPECT_EQ(groups[0].group, "all");
  EXPECT_EQ(groups[1].group, "workload=ecg");
  EXPECT_EQ(groups[2].group, "workload=wam");
  EXPECT_EQ(groups[3].group, "intensity=0");
  EXPECT_EQ(groups[4].group, "intensity=1");
  EXPECT_EQ(groups[1].algos[0].n, 2u);
  EXPECT_DOUBLE_EQ(groups[3].algos[0].dmr.mean, 0.2);  // (0.1 + 0.3) / 2.
}

TEST(CampaignReport, NearestRankQuantiles) {
  std::vector<ShardRecord> records;
  for (std::size_t i = 0; i < 10; ++i)
    records.push_back(
        record(i, "ecg", 0.0, static_cast<double>(i + 1) / 10.0));
  const std::vector<GroupAggregate> groups = aggregate(records);
  const AlgoAggregate& agg = groups[0].algos[0];
  EXPECT_DOUBLE_EQ(agg.dmr.p50, 0.5);  // Rank (10-1)*50/100 = 4 -> 0.5.
  EXPECT_DOUBLE_EQ(agg.dmr.p90, 0.9);  // Rank (10-1)*90/100 = 8 -> 0.9.
  EXPECT_DOUBLE_EQ(agg.dmr.min, 0.1);
  EXPECT_DOUBLE_EQ(agg.dmr.max, 1.0);
}

TEST(CampaignReport, JsonIsByteStableAndTableMentionsGroups) {
  const std::vector<ShardRecord> records = {record(0, "ecg", 0.0, 0.125),
                                            record(1, "wam", 1.0, 0.25)};
  EXPECT_EQ(aggregate_json(records), aggregate_json(records));
  EXPECT_NE(aggregate_json(records).find("\"p90\""), std::string::npos);
  const std::string table = aggregate_table(records);
  EXPECT_NE(table.find("[workload=wam]"), std::string::npos);
  EXPECT_NE(table.find("Proposed"), std::string::npos);
}

TEST(CampaignReport, EmptyRecordsStillRender) {
  const std::vector<ShardRecord> none;
  EXPECT_NE(aggregate_json(none).find("\"shards\": 0"), std::string::npos);
  EXPECT_NE(aggregate_table(none).find("0 shards"), std::string::npos);
}

}  // namespace
}  // namespace solsched::campaign
