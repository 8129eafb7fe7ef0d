#include "obs/analysis/timeline.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <stdexcept>

#include "obs/json.hpp"
#include "obs/span.hpp"
#include "util/durable.hpp"

namespace solsched::obs::analysis {
namespace {

/// Trace ids travel as "0x<hex>" strings (a JSON number would round u64
/// ids through a double). 0 on anything else.
std::uint64_t parse_hex_id(const std::string& text) {
  if (text.size() < 3 || text[0] != '0' || (text[1] != 'x' && text[1] != 'X'))
    return 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text.c_str() + 2, &end, 16);
  return end == text.c_str() + text.size() ? static_cast<std::uint64_t>(v)
                                           : 0;
}

bool is_stage_span(const std::string& name) {
  // Stage spans are "serve.req.<stage>"; "serve.req" itself is the total.
  return name.size() > 10 && name.compare(0, 10, "serve.req.") == 0;
}

void append_ms(std::string& out, const char* label, std::uint64_t us) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%s %.3f ms", label,
                static_cast<double>(us) / 1000.0);
  out += buf;
}

}  // namespace

Timeline load_timeline(const std::vector<std::string>& paths) {
  Timeline timeline;
  for (std::size_t file_index = 0; file_index < paths.size(); ++file_index) {
    const std::string& path = paths[file_index];
    const JsonValue doc = parse_json(util::read_file(path));
    const JsonValue* events = doc.find("traceEvents");
    if (events == nullptr || !events->is_array())
      throw std::runtime_error("timeline: " + path +
                               ": no \"traceEvents\" array");
    for (const JsonValue& ev : events->array) {
      if (!ev.is_object()) continue;
      const std::string ph = ev.string_or("ph");
      if (ph != "X" && ph != "s" && ph != "f") continue;
      TimelineEvent out;
      out.name = ev.string_or("name");
      out.ph = ph[0];
      out.ts_us = ev.u64_or("ts");
      out.dur_us = ev.u64_or("dur");
      out.pid = file_index + 1;
      out.tid = static_cast<std::size_t>(ev.u64_or("tid"));
      out.source = path;
      if (ph[0] == 'X') {
        if (const JsonValue* args = ev.find("args");
            args != nullptr && args->is_object())
          out.trace_id = parse_hex_id(args->string_or("trace"));
      } else {
        out.trace_id = parse_hex_id(ev.string_or("id"));
      }
      timeline.events.push_back(std::move(out));
    }
  }
  std::stable_sort(timeline.events.begin(), timeline.events.end(),
                   [](const TimelineEvent& a, const TimelineEvent& b) {
                     return a.ts_us != b.ts_us ? a.ts_us < b.ts_us
                                               : a.pid < b.pid;
                   });
  return timeline;
}

std::vector<RequestBreakdown> request_breakdowns(const Timeline& timeline) {
  // Map preserves nothing; order of first appearance does — the events are
  // already ts-sorted, so collect ids in encounter order.
  std::vector<RequestBreakdown> out;
  std::map<std::uint64_t, std::size_t> index_of;
  for (const TimelineEvent& ev : timeline.events) {
    if (ev.ph != 'X' || ev.trace_id == 0) continue;
    auto [it, inserted] = index_of.emplace(ev.trace_id, out.size());
    if (inserted) {
      out.emplace_back();
      out.back().trace_id = ev.trace_id;
      out.back().first_ts_us = ev.ts_us;
    }
    RequestBreakdown& b = out[it->second];
    b.first_ts_us = std::min(b.first_ts_us, ev.ts_us);
    if (ev.name == "serve.client.request")
      b.client_latency_us = ev.dur_us;
    else if (ev.name == "serve.req")
      b.server_total_us = ev.dur_us;
    else if (is_stage_span(ev.name))
      b.stage_sum_us += ev.dur_us;
    b.spans.push_back(ev);
  }
  return out;
}

std::string render_timeline(const Timeline& timeline,
                            std::uint64_t trace_id) {
  std::string out;
  char line[256];
  for (const RequestBreakdown& b : request_breakdowns(timeline)) {
    if (trace_id != 0 && b.trace_id != trace_id) continue;
    std::snprintf(line, sizeof(line), "trace 0x%llx\n",
                  static_cast<unsigned long long>(b.trace_id));
    out += line;
    for (const TimelineEvent& ev : b.spans) {
      std::snprintf(line, sizeof(line), "  %-26s +%9.3f ms  dur %9.3f ms  [%s]\n",
                    ev.name.c_str(),
                    static_cast<double>(ev.ts_us - b.first_ts_us) / 1000.0,
                    static_cast<double>(ev.dur_us) / 1000.0,
                    ev.source.c_str());
      out += line;
    }
    out += " ";
    append_ms(out, " stages", b.stage_sum_us);
    append_ms(out, "  server", b.server_total_us);
    append_ms(out, "  client", b.client_latency_us);
    out += "\n";
  }
  return out;
}

bool write_merged_trace(const Timeline& timeline, const std::string& path) {
  std::string events;
  for (std::size_t i = 0; i < timeline.events.size(); ++i) {
    const TimelineEvent& e = timeline.events[i];
    if (i) events += ',';
    append_chrome_event(events, e.name, e.ph, e.pid, e.tid, e.ts_us,
                        e.dur_us, e.trace_id);
  }
  return write_chrome_events(path, events);
}

}  // namespace solsched::obs::analysis
