#include "obs/span.hpp"

#include <chrono>
#include <cstdio>
#include <mutex>
#include <vector>

#include "obs/json.hpp"
#include "util/durable.hpp"

namespace solsched::obs {
namespace {

using Clock = std::chrono::steady_clock;

Clock::time_point process_origin() noexcept {
  static const Clock::time_point origin = Clock::now();
  return origin;
}

struct TraceEvent {
  std::string name;
  char ph = 'X';             ///< 'X' complete span, 's'/'f' flow endpoints.
  std::uint64_t ts_us = 0;
  std::uint64_t dur_us = 0;  ///< Meaningful for 'X' only.
  std::size_t tid = 0;
  std::uint64_t id = 0;      ///< Trace/flow id; 0 = none.
};

/// Bounded buffer: ~100 ms of dense dp.pareto_options spans fit with room
/// to spare; anything beyond is dropped (counted), never reallocated into
/// an unbounded trace.
constexpr std::size_t kMaxTraceEvents = 1 << 18;

struct TraceBuffer {
  std::mutex mutex;
  std::vector<TraceEvent> events;
  std::size_t dropped = 0;
};

TraceBuffer& trace_buffer() {
  static TraceBuffer buffer;
  return buffer;
}

std::atomic<bool> g_trace_events{false};

void push_trace_event(TraceEvent event) {
  TraceBuffer& buffer = trace_buffer();
  std::lock_guard<std::mutex> lock(buffer.mutex);
  if (buffer.events.size() >= kMaxTraceEvents) {
    ++buffer.dropped;
    return;
  }
  buffer.events.push_back(std::move(event));
}

void record_trace_event(const char* name, std::uint64_t start_us,
                        std::uint64_t end_us) {
  push_trace_event(TraceEvent{std::string(name), 'X', start_us,
                              end_us - start_us, thread_ordinal(), 0});
}

Counter& span_counter(const char* name, const char* suffix) {
  return MetricsRegistry::global().counter(std::string("span.") + name +
                                           suffix);
}

}  // namespace

std::uint64_t now_us() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                            process_origin())
          .count());
}

std::uint64_t wall_us() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

Counter& SpanSite::calls() {
  Counter* c = calls_.load(std::memory_order_acquire);
  if (!c) {
    // A concurrent first call resolves the same registry entry; storing
    // twice is benign (same pointer).
    c = &span_counter(name_, ".calls");
    calls_.store(c, std::memory_order_release);
  }
  return *c;
}

Counter& SpanSite::total_us() {
  Counter* c = total_us_.load(std::memory_order_acquire);
  if (!c) {
    c = &span_counter(name_, ".total_us");
    total_us_.store(c, std::memory_order_release);
  }
  return *c;
}

ScopedSpan::ScopedSpan(SpanSite& site) {
  if (!enabled()) return;
  site_ = &site;
  start_us_ = now_us();
  active_ = true;
}

ScopedSpan::ScopedSpan(std::string name) {
  if (!enabled()) return;
  dynamic_name_ = std::move(name);
  start_us_ = now_us();
  active_ = true;
}

ScopedSpan::~ScopedSpan() {
  if (!active_) return;
  const std::uint64_t end = now_us();
  const std::uint64_t dur = end - start_us_;
  const char* name = site_ ? site_->name() : dynamic_name_.c_str();
  if (site_) {
    site_->calls().add(1);
    site_->total_us().add(dur);
  } else {
    span_counter(name, ".calls").add(1);
    span_counter(name, ".total_us").add(dur);
  }
  if (g_trace_events.load(std::memory_order_relaxed))
    record_trace_event(name, start_us_, end);
}

void record_span_event(const std::string& name, std::uint64_t ts_us,
                       std::uint64_t dur_us, std::uint64_t trace_id) {
  if (!g_trace_events.load(std::memory_order_relaxed)) return;
  push_trace_event(
      TraceEvent{name, 'X', ts_us, dur_us, thread_ordinal(), trace_id});
}

void record_flow_event(const std::string& name, std::uint64_t trace_id,
                       bool start, std::uint64_t ts_us) {
  if (!g_trace_events.load(std::memory_order_relaxed)) return;
  push_trace_event(TraceEvent{name, start ? 's' : 'f', ts_us, 0,
                              thread_ordinal(), trace_id});
}

void set_trace_events_enabled(bool on) noexcept {
  g_trace_events.store(on, std::memory_order_relaxed);
}

bool trace_events_enabled() noexcept {
  return g_trace_events.load(std::memory_order_relaxed);
}

void clear_trace_events() {
  TraceBuffer& buffer = trace_buffer();
  std::lock_guard<std::mutex> lock(buffer.mutex);
  buffer.events.clear();
  buffer.dropped = 0;
}

std::size_t trace_event_count() {
  TraceBuffer& buffer = trace_buffer();
  std::lock_guard<std::mutex> lock(buffer.mutex);
  return buffer.events.size();
}

std::size_t dropped_trace_event_count() {
  TraceBuffer& buffer = trace_buffer();
  std::lock_guard<std::mutex> lock(buffer.mutex);
  return buffer.dropped;
}

bool write_chrome_trace(const std::string& path) {
  // The document is built under the buffer lock and written after it is
  // released, so a slow disk never stalls the spans being recorded.
  std::string events;
  {
    TraceBuffer& buffer = trace_buffer();
    std::lock_guard<std::mutex> lock(buffer.mutex);
    for (std::size_t i = 0; i < buffer.events.size(); ++i) {
      const TraceEvent& e = buffer.events[i];
      if (i) events += ',';
      append_chrome_event(events, e.name, e.ph, 1, e.tid, e.ts_us, e.dur_us,
                          e.id);
    }
  }
  return write_chrome_events(path, events);
}

void append_chrome_event(std::string& out, const std::string& name, char ph,
                         std::size_t pid, std::size_t tid,
                         std::uint64_t ts_us, std::uint64_t dur_us,
                         std::uint64_t trace_id) {
  char buf[192];
  out += "\n{\"name\":\"";
  out += json_escape(name);
  if (ph == 'X') {
    std::snprintf(buf, sizeof(buf),
                  "\",\"ph\":\"X\",\"pid\":%zu,\"tid\":%zu,\"ts\":%llu,"
                  "\"dur\":%llu",
                  pid, tid, static_cast<unsigned long long>(ts_us),
                  static_cast<unsigned long long>(dur_us));
    out += buf;
    // Trace-id args only on tagged spans: untagged span bytes stay
    // identical to the pre-flow sink output.
    if (trace_id != 0) {
      std::snprintf(buf, sizeof(buf), ",\"args\":{\"trace\":\"0x%llx\"}",
                    static_cast<unsigned long long>(trace_id));
      out += buf;
    }
    out += '}';
  } else {
    // Flow endpoints; "bp":"e" binds the finish to its enclosing slice.
    std::snprintf(buf, sizeof(buf),
                  "\",\"cat\":\"flow\",\"ph\":\"%c\",\"pid\":%zu,"
                  "\"tid\":%zu,\"ts\":%llu,\"id\":\"0x%llx\"%s}",
                  ph, pid, tid, static_cast<unsigned long long>(ts_us),
                  static_cast<unsigned long long>(trace_id),
                  ph == 'f' ? ",\"bp\":\"e\"" : "");
    out += buf;
  }
}

bool write_chrome_events(const std::string& path, const std::string& events) {
  try {
    util::write_atomic(path, "{\"traceEvents\":[" + events +
                                 "\n],\"displayTimeUnit\":\"ms\"}\n");
  } catch (const util::IoError&) {
    return false;
  }
  return true;
}

}  // namespace solsched::obs
