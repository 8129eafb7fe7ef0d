#include "obs/sim_trace.hpp"

#include <charconv>
#include <cstdlib>
#include <stdexcept>

#include "obs/json_escape.hpp"

namespace solsched::obs {
namespace {

std::string fmt_double(double x) {
  char buf[32];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), x);
  return ec == std::errc() ? std::string(buf, end) : std::string("0");
}

[[noreturn]] void malformed(const std::string& line, const char* what) {
  throw std::runtime_error("SimTrace::parse_jsonl: " + std::string(what) +
                           " in line: " + line);
}

[[noreturn]] void malformed_csv(const std::string& line, const char* what) {
  throw std::runtime_error("SimTrace::parse_csv: " + std::string(what) +
                           " in line: " + line);
}

/// Consumes one CSV cell of `text` starting at `i`; leaves `i` on the
/// separator / record terminator (or at the end of the text). Quoted cells
/// may span physical lines (RFC-4180 embedded line breaks), which is why
/// parsing scans the whole document rather than splitting on '\n' first.
std::string parse_csv_cell(const std::string& text, std::size_t& i) {
  std::string cell;
  if (i < text.size() && text[i] == '"') {
    ++i;
    for (;;) {
      if (i >= text.size())
        malformed_csv(cell.substr(0, 40), "unterminated quoted cell");
      if (text[i] == '"') {
        if (i + 1 < text.size() && text[i + 1] == '"') {
          cell += '"';
          i += 2;
          continue;
        }
        ++i;
        break;
      }
      cell += text[i++];
    }
    if (i < text.size() && text[i] != ',' && text[i] != '\n')
      malformed_csv(cell.substr(0, 40), "garbage after quoted cell");
  } else {
    while (i < text.size() && text[i] != ',' && text[i] != '\n')
      cell += text[i++];
  }
  return cell;
}

/// Consumes `"key":` at position i (no whitespace inside our own output,
/// but stray spaces are tolerated); returns the key.
std::string parse_key(const std::string& line, std::size_t& i) {
  while (i < line.size() && line[i] == ' ') ++i;
  if (i >= line.size() || line[i] != '"') malformed(line, "expected key");
  const std::size_t end = line.find('"', i + 1);
  if (end == std::string::npos) malformed(line, "unterminated key");
  std::string key = line.substr(i + 1, end - i - 1);
  i = end + 1;
  while (i < line.size() && line[i] == ' ') ++i;
  if (i >= line.size() || line[i] != ':') malformed(line, "expected ':'");
  ++i;
  while (i < line.size() && line[i] == ' ') ++i;
  return key;
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
    out += e.type;
    out += "\",\"day\":";
    out += std::to_string(e.day);
    out += ",\"period\":";
    out += std::to_string(e.period);
    for (const auto& [key, value] : e.fields) {
      out += ",\"";
      out += key;
      out += "\":";
      out += fmt_double(value);
    }
    out += "}\n";
  }
  return out;
}

std::string SimTrace::to_csv() const {
  std::string out = "type,day,period,field,value\n";
  for (const SimEvent& e : events_)
    for (const auto& [key, value] : e.fields) {
      out += csv_cell(e.type);
      out += ",";
      out += std::to_string(e.day);
      out += ",";
      out += std::to_string(e.period);
      out += ",";
      out += csv_cell(key);
      out += ",";
      out += fmt_double(value);
      out += "\n";
    }
  return out;
}

std::vector<SimEvent> SimTrace::parse_jsonl(const std::string& text) {
  std::vector<SimEvent> events;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    const std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.empty()) continue;

    std::size_t i = 0;
    while (i < line.size() && line[i] == ' ') ++i;
    if (line[i] != '{') malformed(line, "expected '{'");
    ++i;

    SimEvent event;
    bool first = true;
    for (;;) {
      while (i < line.size() && line[i] == ' ') ++i;
      if (i < line.size() && line[i] == '}') break;
      if (!first) {
        if (i >= line.size() || line[i] != ',') malformed(line, "expected ','");
        ++i;
      }
      first = false;
      const std::string key = parse_key(line, i);
      if (key == "type") {
        if (i >= line.size() || line[i] != '"')
          malformed(line, "expected string value");
        const std::size_t end = line.find('"', i + 1);
        if (end == std::string::npos) malformed(line, "unterminated string");
        event.type = line.substr(i + 1, end - i - 1);
        i = end + 1;
        continue;
      }
      // Numeric value.
      const char* begin = line.c_str() + i;
      char* value_end = nullptr;
      const double value = std::strtod(begin, &value_end);
      if (value_end == begin) malformed(line, "expected number");
      i += static_cast<std::size_t>(value_end - begin);
      if (key == "day")
        event.day = static_cast<std::uint32_t>(value);
      else if (key == "period")
        event.period = static_cast<std::uint32_t>(value);
      else
        event.fields.emplace_back(key, value);
    }
    events.push_back(std::move(event));
  }
  return events;
}

std::vector<SimEvent> SimTrace::parse_csv(const std::string& text) {
  std::vector<SimEvent> events;
  std::size_t pos = 0;
  bool header_seen = false;
  while (pos < text.size()) {
    if (text[pos] == '\n') {  // Blank line between records.
      ++pos;
      continue;
    }
    if (!header_seen) {
      std::size_t eol = text.find('\n', pos);
      if (eol == std::string::npos) eol = text.size();
      const std::string line = text.substr(pos, eol - pos);
      if (line != "type,day,period,field,value")
        malformed_csv(line, "unexpected header");
      header_seen = true;
      pos = eol + 1;
      continue;
    }

    std::string cells[5];
    for (int c = 0; c < 5; ++c) {
      cells[c] = parse_csv_cell(text, pos);
      if (c < 4) {
        if (pos >= text.size() || text[pos] != ',')
          malformed_csv(cells[c].substr(0, 40), "expected 5 cells");
        ++pos;
      }
    }
    if (pos < text.size()) {
      if (text[pos] != '\n')
        malformed_csv(cells[4].substr(0, 40), "trailing cells");
      ++pos;
    }

    const auto parse_u32 = [&](const std::string& cell) {
      char* end = nullptr;
      const unsigned long v = std::strtoul(cell.c_str(), &end, 10);
      if (end != cell.c_str() + cell.size() || cell.empty())
        malformed_csv(cell, "expected integer coordinate");
      return static_cast<std::uint32_t>(v);
    };
    const std::uint32_t day = parse_u32(cells[1]);
    const std::uint32_t period = parse_u32(cells[2]);
    char* value_end = nullptr;
    const double value = std::strtod(cells[4].c_str(), &value_end);
    if (value_end != cells[4].c_str() + cells[4].size() || cells[4].empty())
      malformed_csv(cells[4], "expected numeric value");

    if (events.empty() || events.back().type != cells[0] ||
        events.back().day != day || events.back().period != period) {
      SimEvent event;
      event.type = cells[0];
      event.day = day;
      event.period = period;
      events.push_back(std::move(event));
    }
    events.back().fields.emplace_back(cells[3], value);
  }
  if (!header_seen && !text.empty())
    malformed_csv(text.substr(0, 40), "missing header");
  return events;
}

}  // namespace solsched::obs
