#include "obs/sim_trace.hpp"

#include <limits>
#include <stdexcept>

#include "obs/json.hpp"

namespace solsched::obs {
namespace {

/// Member `key` of an event line as a day or period index.
std::uint32_t index_of(const JsonRecord& rec, const std::string& key) {
  const std::uint64_t value = rec.u64(key);
  if (value > std::numeric_limits<std::uint32_t>::max())
    rec.fail("\"" + key + "\" is out of range");
  return static_cast<std::uint32_t>(value);
}

}  // namespace

double SimEvent::field_or(std::string_view name, double fallback) const {
  for (const auto& [key, value] : fields)
    if (key == name) return value;
  return fallback;
}

std::size_t SimTrace::count(std::string_view type) const {
  std::size_t n = 0;
  for (const SimEvent& e : events_)
    if (e.type == type) ++n;
  return n;
}

double SimTrace::sum(std::string_view type, std::string_view field) const {
  double total = 0.0;
  for (const SimEvent& e : events_)
    if (e.type == type) total += e.field_or(field);
  return total;
}

double SimTrace::mean(std::string_view type, std::string_view field) const {
  const std::size_t n = count(type);
  return n == 0 ? 0.0 : sum(type, field) / static_cast<double>(n);
}

std::string SimTrace::to_jsonl() const {
  std::string out;
  for (const SimEvent& e : events_) {
    out += "{\"type\":\"";
    out += json_escape(e.type);
    out += "\",\"day\":";
    out += std::to_string(e.day);
    out += ",\"period\":";
    out += std::to_string(e.period);
    for (const auto& [key, value] : e.fields) {
      out += ",\"";
      out += json_escape(key);
      out += "\":";
      out += json_number(value);
    }
    out += "}\n";
  }
  return out;
}

std::vector<SimEvent> SimTrace::parse_jsonl(const std::string& text) {
  static const std::string kLabel = "SimTrace::parse_jsonl";
  std::vector<SimEvent> events;
  std::size_t line_no = 0;
  for (std::size_t pos = 0; pos < text.size();) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    const std::string_view line(text.data() + pos, eol - pos);
    pos = eol + 1;
    ++line_no;
    if (line.empty()) continue;

    JsonValue doc;
    try {
      doc = parse_json(line);
    } catch (const std::runtime_error& e) {
      throw std::runtime_error(kLabel + ": line " + std::to_string(line_no) +
                               ": " + e.what());
    }
    const JsonRecord rec{doc, kLabel, line_no};
    if (!doc.is_object()) rec.fail("not an object");
    SimEvent event;
    for (const auto& [key, value] : doc.object) {
      if (key == "type")
        event.type = rec.string(key);
      else if (key == "day")
        event.day = index_of(rec, key);
      else if (key == "period")
        event.period = index_of(rec, key);
      else if (value.is_number())
        event.fields.emplace_back(key, value.number);
      else
        rec.fail("\"" + key + "\" is not a number");
    }
    events.push_back(std::move(event));
  }
  return events;
}

}  // namespace solsched::obs
