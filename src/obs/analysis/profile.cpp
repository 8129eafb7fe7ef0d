#include "obs/analysis/profile.hpp"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <stdexcept>

#include "obs/json.hpp"

namespace solsched::obs::analysis {
namespace {

struct RawEvent {
  std::string name;
  std::uint64_t ts = 0;
  std::uint64_t dur = 0;
};

std::string render_ms(std::uint64_t us) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", static_cast<double>(us) / 1000.0);
  return buf;
}

}  // namespace

SpanProfile profile_trace(const std::string& trace_json_text) {
  const JsonValue doc = parse_json(trace_json_text);
  const JsonValue* events = doc.find("traceEvents");
  if (events == nullptr || !events->is_array())
    throw std::runtime_error("profile: no traceEvents array in trace");

  // Bucket complete events per thread; nesting only holds within a thread.
  std::map<std::uint64_t, std::vector<RawEvent>> by_tid;
  std::uint64_t min_ts = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t max_end = 0;
  SpanProfile profile;
  for (const JsonValue& ev : events->array) {
    if (ev.string_or("ph") != "X") continue;
    RawEvent raw;
    raw.name = ev.string_or("name");
    raw.ts = ev.u64_or("ts");
    raw.dur = ev.u64_or("dur");
    const std::uint64_t tid = ev.u64_or("tid");
    min_ts = std::min(min_ts, raw.ts);
    max_end = std::max(max_end, raw.ts + raw.dur);
    by_tid[tid].push_back(std::move(raw));
    ++profile.events;
  }
  profile.threads = by_tid.size();
  if (profile.events > 0) profile.wall_us = max_end - min_ts;

  std::map<std::string, SpanAggregate> agg;
  for (auto& [tid, list] : by_tid) {
    // Sort by (start asc, duration desc): a parent that starts at the same
    // microsecond as its child is visited first, so the running stack below
    // reconstructs the nesting without begin/end markers.
    std::sort(list.begin(), list.end(),
              [](const RawEvent& a, const RawEvent& b) {
                if (a.ts != b.ts) return a.ts < b.ts;
                return a.dur > b.dur;
              });

    std::uint64_t t_min = std::numeric_limits<std::uint64_t>::max();
    std::uint64_t t_max = 0;

    struct Frame {
      const RawEvent* ev;
      std::uint64_t child_us = 0;  ///< Durations of direct children.
    };
    std::vector<Frame> stack;
    std::vector<std::string> path;  ///< Names of the open frames.

    auto pop_frame = [&] {
      const Frame& top = stack.back();
      const std::uint64_t self =
          top.ev->dur >= top.child_us ? top.ev->dur - top.child_us : 0;
      SpanAggregate& a = agg[top.ev->name];
      a.name = top.ev->name;
      ++a.calls;
      a.total_us += top.ev->dur;
      a.self_us += self;
      if (self > 0) {
        std::string key;
        for (const std::string& part : path) {
          if (!key.empty()) key += ';';
          key += part;
        }
        profile.folded[key] += self;
      }
      if (stack.size() >= 2)
        stack[stack.size() - 2].child_us += top.ev->dur;
      else
        profile.accounted_us += top.ev->dur;
      stack.pop_back();
      path.pop_back();
    };

    for (const RawEvent& ev : list) {
      t_min = std::min(t_min, ev.ts);
      t_max = std::max(t_max, ev.ts + ev.dur);
      // A span whose interval ended at or before this start is a sibling
      // (or uncle), not an ancestor — close it.
      while (!stack.empty() &&
             ev.ts >= stack.back().ev->ts + stack.back().ev->dur)
        pop_frame();
      stack.push_back(Frame{&ev});
      path.push_back(ev.name);
    }
    while (!stack.empty()) pop_frame();
    if (t_max > t_min) profile.thread_extent_us += t_max - t_min;
  }

  profile.spans.reserve(agg.size());
  for (auto& [name, a] : agg) profile.spans.push_back(std::move(a));
  std::sort(profile.spans.begin(), profile.spans.end(),
            [](const SpanAggregate& a, const SpanAggregate& b) {
              if (a.self_us != b.self_us) return a.self_us > b.self_us;
              return a.name < b.name;
            });
  return profile;
}

std::string profile_table(const SpanProfile& profile) {
  std::string out;
  char line[256];
  std::snprintf(line, sizeof(line), "%-40s %10s %12s %12s %7s\n", "span",
                "calls", "total_ms", "self_ms", "self%");
  out += line;
  const double denom =
      profile.thread_extent_us > 0
          ? static_cast<double>(profile.thread_extent_us)
          : 1.0;
  for (const SpanAggregate& a : profile.spans) {
    std::snprintf(line, sizeof(line), "%-40s %10llu %12s %12s %6.2f%%\n",
                  a.name.c_str(), static_cast<unsigned long long>(a.calls),
                  render_ms(a.total_us).c_str(), render_ms(a.self_us).c_str(),
                  100.0 * static_cast<double>(a.self_us) / denom);
    out += line;
  }
  std::snprintf(line, sizeof(line),
                "events %zu  threads %zu  wall_ms %s  accounted_ms %s  "
                "coverage %.1f%%\n",
                profile.events, profile.threads,
                render_ms(profile.wall_us).c_str(),
                render_ms(profile.accounted_us).c_str(),
                100.0 * profile.coverage());
  out += line;
  return out;
}

std::string folded_stacks(const SpanProfile& profile) {
  std::string out;
  for (const auto& [path, self_us] : profile.folded) {
    out += path;
    out += ' ';
    out += std::to_string(self_us);
    out += '\n';
  }
  return out;
}

}  // namespace solsched::obs::analysis
