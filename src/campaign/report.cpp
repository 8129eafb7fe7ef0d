#include "campaign/report.hpp"

#include <algorithm>
#include <cstdio>
#include <map>

#include "obs/json.hpp"
#include "util/stats.hpp"

namespace solsched::campaign {
namespace {

std::string render_double(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string render_fixed(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.4f", value);
  return buf;
}

/// Nearest-rank quantile over a sorted sample; the index rule lives in
/// util::nearest_rank_index (integer arithmetic only — no floating-point
/// index math to go platform-shaped) and is shared with core::metrics_report.
double quantile(const std::vector<double>& sorted, std::size_t percent) {
  if (sorted.empty()) return 0.0;
  return sorted[util::nearest_rank_index(sorted.size(), percent)];
}

MetricSummary summarize(std::vector<double> values) {
  MetricSummary out;
  if (values.empty()) return out;
  double sum = 0.0;
  for (double v : values) sum += v;  // Shard order: deterministic.
  out.mean = sum / static_cast<double>(values.size());
  std::sort(values.begin(), values.end());
  out.min = values.front();
  out.max = values.back();
  out.p50 = quantile(values, 50);
  out.p90 = quantile(values, 90);
  return out;
}

/// Accumulates per-algo samples for one group, preserving first-appearance
/// algo order (the ComparisonRow declaration order of the first shard).
struct GroupBuilder {
  std::string group;
  std::vector<std::string> order;
  std::map<std::string, std::vector<double>> dmr;
  std::map<std::string, std::vector<double>> util;
  std::map<std::string, std::uint64_t> brownouts;
  std::map<std::string, std::uint64_t> pf_slots;
  std::map<std::string, std::uint64_t> fallbacks;

  void add(const ShardRecord& record) {
    for (const ShardRow& row : record.rows) {
      if (dmr.find(row.algo) == dmr.end()) order.push_back(row.algo);
      dmr[row.algo].push_back(row.dmr);
      util[row.algo].push_back(row.energy_utilization);
      brownouts[row.algo] += row.brownouts;
      pf_slots[row.algo] += row.power_failure_slots;
      fallbacks[row.algo] += row.fallbacks;
    }
  }

  GroupAggregate build() const {
    GroupAggregate out;
    out.group = group;
    for (const std::string& algo : order) {
      AlgoAggregate agg;
      agg.algo = algo;
      agg.n = dmr.at(algo).size();
      agg.dmr = summarize(dmr.at(algo));
      agg.energy_utilization = summarize(util.at(algo));
      agg.brownouts = brownouts.at(algo);
      agg.power_failure_slots = pf_slots.at(algo);
      agg.fallbacks = fallbacks.at(algo);
      out.algos.push_back(std::move(agg));
    }
    return out;
  }
};

std::string summary_json(const MetricSummary& s) {
  std::string out = "{\"mean\": " + render_double(s.mean);
  out += ", \"min\": " + render_double(s.min);
  out += ", \"p50\": " + render_double(s.p50);
  out += ", \"p90\": " + render_double(s.p90);
  out += ", \"max\": " + render_double(s.max);
  out += "}";
  return out;
}

}  // namespace

std::vector<ShardRecord> load_journal_records(const std::string& path) {
  return Journal::load(path, 0).records;
}

std::vector<GroupAggregate> aggregate(const std::vector<ShardRecord>& records) {
  GroupBuilder all;
  all.group = "all";
  std::vector<std::string> workload_order;
  std::map<std::string, GroupBuilder> by_workload;
  std::vector<std::string> intensity_order;
  std::map<std::string, GroupBuilder> by_intensity;

  for (const ShardRecord& record : records) {
    all.add(record);
    const std::string wkey = "workload=" + record.workload;
    if (by_workload.find(wkey) == by_workload.end()) {
      workload_order.push_back(wkey);
      by_workload[wkey].group = wkey;
    }
    by_workload[wkey].add(record);
    const std::string ikey = "intensity=" + render_double(record.intensity);
    if (by_intensity.find(ikey) == by_intensity.end()) {
      intensity_order.push_back(ikey);
      by_intensity[ikey].group = ikey;
    }
    by_intensity[ikey].add(record);
  }

  std::vector<GroupAggregate> out;
  out.push_back(all.build());
  for (const std::string& key : workload_order)
    if (by_workload.size() > 1) out.push_back(by_workload.at(key).build());
  for (const std::string& key : intensity_order)
    if (by_intensity.size() > 1) out.push_back(by_intensity.at(key).build());
  return out;
}

std::string aggregate_table(const std::vector<ShardRecord>& records) {
  const std::vector<GroupAggregate> groups = aggregate(records);
  std::string out =
      "campaign aggregate (" + std::to_string(records.size()) + " shards)\n";
  for (const GroupAggregate& group : groups) {
    out += "\n[" + group.group + "]\n";
    char head[160];
    std::snprintf(head, sizeof(head), "  %-10s %4s %8s %8s %8s %8s %8s %8s\n",
                  "algo", "n", "dmr.mean", "dmr.p50", "dmr.p90", "dmr.max",
                  "util", "brownout");
    out += head;
    for (const AlgoAggregate& algo : group.algos) {
      char line[256];
      std::snprintf(line, sizeof(line),
                    "  %-10s %4zu %8s %8s %8s %8s %8s %8llu\n",
                    algo.algo.c_str(), algo.n,
                    render_fixed(algo.dmr.mean).c_str(),
                    render_fixed(algo.dmr.p50).c_str(),
                    render_fixed(algo.dmr.p90).c_str(),
                    render_fixed(algo.dmr.max).c_str(),
                    render_fixed(algo.energy_utilization.mean).c_str(),
                    static_cast<unsigned long long>(algo.brownouts));
      out += line;
    }
  }
  return out;
}

std::string aggregate_json(const std::vector<ShardRecord>& records) {
  using obs::json_escape;
  const std::vector<GroupAggregate> groups = aggregate(records);
  std::string out = "{\n  \"aggregate\": \"solsched-campaign-aggregate-v1\",\n";
  out += "  \"shards\": " + std::to_string(records.size()) + ",\n";
  out += "  \"groups\": [";
  for (std::size_t g = 0; g < groups.size(); ++g) {
    const GroupAggregate& group = groups[g];
    out += g == 0 ? "\n" : ",\n";
    out += "    {\"group\": \"" + json_escape(group.group) +
           "\", \"algos\": [";
    for (std::size_t a = 0; a < group.algos.size(); ++a) {
      const AlgoAggregate& algo = group.algos[a];
      out += a == 0 ? "\n" : ",\n";
      out += "      {\"algo\": \"" + json_escape(algo.algo) + "\"";
      out += ", \"n\": " + std::to_string(algo.n);
      out += ", \"dmr\": " + summary_json(algo.dmr);
      out += ", \"energy_utilization\": " +
             summary_json(algo.energy_utilization);
      out += ", \"brownouts\": " + std::to_string(algo.brownouts);
      out += ", \"power_failure_slots\": " +
             std::to_string(algo.power_failure_slots);
      out += ", \"fallbacks\": " + std::to_string(algo.fallbacks);
      out += "}";
    }
    out += "\n    ]}";
  }
  out += "\n  ]\n}\n";
  return out;
}

}  // namespace solsched::campaign
