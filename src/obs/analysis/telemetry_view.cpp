#include "obs/analysis/telemetry_view.hpp"

#include <stdexcept>

#include "obs/analysis/json_mini.hpp"
#include "util/durable.hpp"

namespace solsched::obs::analysis {
namespace {

constexpr const char* kTelemetryMagic = "solsched-campaign-telemetry-v1";

}  // namespace

std::map<std::string, std::size_t> TelemetryLog::census() const {
  std::map<std::string, std::size_t> out;
  for (const TelemetryLine& line : lines) ++out[line.type];
  return out;
}

TelemetryLog load_telemetry(const std::string& text) {
  TelemetryLog out;
  bool header_seen = false;
  const auto parse = [&](std::string_view line, std::size_t line_no) {
    JsonValue doc;
    try {
      doc = parse_json(std::string(line));
    } catch (const std::exception&) {
      return false;
    }
    if (!doc.is_object())
      throw std::runtime_error("telemetry.jsonl: line " +
                               std::to_string(line_no) + " is not an object");
    if (!header_seen) {
      if (doc.string_or("telemetry") != kTelemetryMagic)
        throw std::runtime_error(
            "telemetry.jsonl: missing or unknown header (expected \"" +
            std::string(kTelemetryMagic) + "\")");
      out.spec_digest = doc.string_or("spec_digest");
      header_seen = true;
      return true;
    }
    TelemetryLine entry;
    entry.seq = static_cast<std::uint64_t>(doc.number_or("seq"));
    entry.wall_ms = static_cast<std::uint64_t>(doc.number_or("ts_ms"));
    entry.type = doc.string_or("type");
    if (const JsonValue* shard = doc.find("shard");
        shard != nullptr && shard->is_number()) {
      entry.has_shard = true;
      entry.shard = static_cast<std::uint64_t>(shard->number);
    }
    entry.workload = doc.string_or("workload");
    entry.detail = doc.string_or("detail");
    out.lines.push_back(std::move(entry));
    return true;
  };
  // Same forgiveness contract as the Journal: appends are sequential, so
  // only the *last* line can be torn by a crash.
  out.dropped_partial = util::replay_lines(text, "telemetry.jsonl", parse);
  return out;
}

}  // namespace solsched::obs::analysis
