#include "campaign/journal.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

#include "obs/json.hpp"
#include "util/durable.hpp"

namespace solsched::campaign {
namespace {

constexpr const char* kMagic = "solsched-campaign-journal-v1";

std::string render_double(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string render_u64(std::uint64_t value) { return std::to_string(value); }

/// 16-digit hex: how the header's spec digest and each record's controller
/// fingerprint are spelled (JSON strings). Other integers are plain JSON
/// numbers, which obs::JsonRecord::u64 reads back exactly at full width.
std::string hex64(std::uint64_t value) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

}  // namespace

std::string ShardRecord::to_json() const {
  using obs::json_escape;
  std::string out = "{\"shard\": " + std::to_string(shard);
  out += ", \"key\": \"" + json_escape(key) + "\"";
  out += ", \"workload\": \"" + json_escape(workload) + "\"";
  out += ", \"seed\": " + render_u64(seed);
  out += ", \"intensity\": " + render_double(intensity);
  out += ", \"artifact_key\": " + render_u64(artifact_key);
  out += ", \"artifact_hit\": ";
  out += artifact_hit ? "true" : "false";
  out += ", \"controller_fp\": \"" + hex64(controller_fingerprint) + "\"";
  out += ", \"rows\": [";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const ShardRow& r = rows[i];
    if (i > 0) out += ", ";
    out += "{\"algo\": \"" + json_escape(r.algo) + "\"";
    out += ", \"dmr\": " + render_double(r.dmr);
    out += ", \"energy_utilization\": " + render_double(r.energy_utilization);
    out += ", \"migration_efficiency\": " + render_double(r.migration_efficiency);
    out += ", \"brownouts\": " + render_u64(r.brownouts);
    out += ", \"solar_j\": " + render_double(r.solar_j);
    out += ", \"served_j\": " + render_double(r.served_j);
    out += ", \"loss_j\": " + render_double(r.loss_j);
    out += ", \"power_failure_slots\": " + render_u64(r.power_failure_slots);
    out += ", \"fallbacks\": " + render_u64(r.fallbacks);
    out += "}";
  }
  out += "]}";
  return out;
}

Journal::Recovered Journal::load(const std::string& path,
                                 std::uint64_t expected_spec_digest) {
  Recovered out;
  const auto parse = [&](const obs::JsonRecord& line) {
    ShardRecord rec;
    rec.shard = line.u64("shard");
    rec.key = line.string("key");
    rec.workload = line.string("workload");
    rec.seed = line.u64("seed");
    rec.intensity = line.number("intensity");
    rec.artifact_key = line.u64("artifact_key");
    const auto* hit = line.value.find("artifact_hit");
    rec.artifact_hit = hit != nullptr && hit->boolean;
    if (const auto* fp = line.value.find("controller_fp");
        fp != nullptr && fp->is_string())
      rec.controller_fingerprint = std::strtoull(fp->string.c_str(), nullptr, 16);
    const auto* rows = line.value.find("rows");
    if (rows == nullptr || !rows->is_array()) line.fail("missing rows array");
    for (const auto& row_value : rows->array) {
      const obs::JsonRecord row{row_value, line.label, line.line_no};
      ShardRow r;
      r.algo = row.string("algo");
      r.dmr = row.number("dmr");
      r.energy_utilization = row.number("energy_utilization");
      r.migration_efficiency = row.number("migration_efficiency");
      r.brownouts = row.u64("brownouts");
      r.solar_j = row.number("solar_j");
      r.served_j = row.number("served_j");
      r.loss_j = row.number("loss_j");
      r.power_failure_slots = row.u64("power_failure_slots");
      r.fallbacks = row.u64("fallbacks");
      rec.rows.push_back(std::move(r));
    }
    out.records.push_back(std::move(rec));
  };
  // A crash can only tear the *last* line (appends are sequential and
  // fsync'd); replay_jsonl forgives exactly that one.
  out.dropped_partial =
      obs::replay_jsonl(util::read_file(path), "journal " + path, "journal",
                        kMagic,
                        expected_spec_digest != 0 ? hex64(expected_spec_digest)
                                                  : "",
                        parse)
          .dropped_partial;
  std::sort(out.records.begin(), out.records.end(),
            [](const ShardRecord& a, const ShardRecord& b) {
              return a.shard < b.shard;
            });
  for (std::size_t i = 1; i < out.records.size(); ++i)
    if (out.records[i].shard == out.records[i - 1].shard)
      throw std::runtime_error("journal " + path +
                               ": duplicate record for shard " +
                               std::to_string(out.records[i].shard));
  return out;
}

Journal::Journal(const std::string& path, std::uint64_t spec_digest)
    : log_(path, obs::jsonl_header("journal", kMagic, hex64(spec_digest))) {}

void Journal::append(const ShardRecord& record) {
  log_.append(record.to_json() + "\n", /*sync=*/true);
}

}  // namespace solsched::campaign
