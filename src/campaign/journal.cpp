#include "campaign/journal.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

#include "obs/analysis/json_mini.hpp"
#include "obs/json_escape.hpp"
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

/// 16-digit hex. Full-width u64 values (hashes, fingerprints) go through
/// JSON strings because a JSON number round-trips via double and loses bits
/// above 2^53.
std::string hex64(std::uint64_t value) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

[[noreturn]] void fail(const std::string& path, const std::string& what) {
  throw std::runtime_error("journal " + path + ": " + what);
}

double require_number(const obs::analysis::JsonValue& obj,
                      const std::string& key, const std::string& path) {
  const auto* v = obj.find(key);
  if (v == nullptr || !v->is_number()) fail(path, "missing number \"" + key + "\"");
  return v->number;
}

std::string require_string(const obs::analysis::JsonValue& obj,
                           const std::string& key, const std::string& path) {
  const auto* v = obj.find(key);
  if (v == nullptr || !v->is_string()) fail(path, "missing string \"" + key + "\"");
  return v->string;
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
  bool header_seen = false;
  const auto parse = [&](std::string_view line, std::size_t line_no) {
    obs::analysis::JsonValue doc;
    try {
      doc = obs::analysis::parse_json(std::string(line));
    } catch (const std::exception&) {
      return false;
    }
    if (!doc.is_object()) fail(path, "line " + std::to_string(line_no) +
                                         " is not an object");
    if (!header_seen) {
      if (doc.string_or("journal") != kMagic)
        fail(path, "missing or unknown header (expected \"" +
                       std::string(kMagic) + "\")");
      const std::string expect = hex64(expected_spec_digest);
      if (expected_spec_digest != 0 &&
          require_string(doc, "spec_digest", path) != expect)
        fail(path, "spec digest mismatch: journal has " +
                       doc.string_or("spec_digest") + ", campaign spec is " +
                       expect +
                       " (refusing to mix results of different grids)");
      header_seen = true;
      return true;
    }
    ShardRecord rec;
    rec.shard = static_cast<std::size_t>(require_number(doc, "shard", path));
    rec.key = require_string(doc, "key", path);
    rec.workload = require_string(doc, "workload", path);
    rec.seed = static_cast<std::uint64_t>(require_number(doc, "seed", path));
    rec.intensity = require_number(doc, "intensity", path);
    rec.artifact_key =
        static_cast<std::uint64_t>(require_number(doc, "artifact_key", path));
    const auto* hit = doc.find("artifact_hit");
    rec.artifact_hit = hit != nullptr && hit->boolean;
    if (const auto* fp = doc.find("controller_fp");
        fp != nullptr && fp->is_string())
      rec.controller_fingerprint = std::strtoull(fp->string.c_str(), nullptr, 16);
    const auto* rows = doc.find("rows");
    if (rows == nullptr || !rows->is_array())
      fail(path, "line " + std::to_string(line_no) + ": missing rows array");
    for (const auto& row : rows->array) {
      ShardRow r;
      r.algo = require_string(row, "algo", path);
      r.dmr = require_number(row, "dmr", path);
      r.energy_utilization = require_number(row, "energy_utilization", path);
      r.migration_efficiency = require_number(row, "migration_efficiency", path);
      r.brownouts =
          static_cast<std::uint64_t>(require_number(row, "brownouts", path));
      r.solar_j = require_number(row, "solar_j", path);
      r.served_j = require_number(row, "served_j", path);
      r.loss_j = require_number(row, "loss_j", path);
      r.power_failure_slots = static_cast<std::uint64_t>(
          require_number(row, "power_failure_slots", path));
      r.fallbacks =
          static_cast<std::uint64_t>(require_number(row, "fallbacks", path));
      rec.rows.push_back(std::move(r));
    }
    out.records.push_back(std::move(rec));
    return true;
  };
  // A crash can only tear the *last* line (appends are sequential and
  // fsync'd); util::replay_lines forgives exactly that one.
  out.dropped_partial =
      util::replay_lines(util::read_file(path), "journal " + path, parse);
  std::sort(out.records.begin(), out.records.end(),
            [](const ShardRecord& a, const ShardRecord& b) {
              return a.shard < b.shard;
            });
  for (std::size_t i = 1; i < out.records.size(); ++i)
    if (out.records[i].shard == out.records[i - 1].shard)
      fail(path, "duplicate record for shard " +
                     std::to_string(out.records[i].shard));
  return out;
}

Journal::Journal(const std::string& path, std::uint64_t spec_digest)
    : log_(path, "{\"journal\": \"" + std::string(kMagic) +
                     "\", \"spec_digest\": \"" + hex64(spec_digest) +
                     "\"}\n") {}

void Journal::append(const ShardRecord& record) {
  log_.append(record.to_json() + "\n", /*sync=*/true);
}

}  // namespace solsched::campaign
