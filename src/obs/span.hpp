// Scoped profiling spans.
//
// OBS_SPAN("dp.run") times the enclosing scope and aggregates into the
// registry as two counters, "span.<name>.calls" and "span.<name>.total_us";
// when the Chrome sink is armed it additionally records a trace_event
// ("ph":"X") so the parallel offline pipeline can be inspected visually in
// chrome://tracing or Perfetto.
//
// Span names follow the metric convention (dotted, subsystem first) and sit
// in the non-deterministic metric family by construction: durations are
// wall clock. The disabled path is one atomic load in the constructor —
// no clock read, no allocation (tests/obs/disabled_path_test.cpp).
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

#include "obs/metrics.hpp"

namespace solsched::obs {

/// Per-call-site cache of a span's two registry counters. Function-local
/// static in the OBS_SPAN macro; safe to construct before main.
class SpanSite {
 public:
  explicit constexpr SpanSite(const char* name) noexcept : name_(name) {}

  const char* name() const noexcept { return name_; }
  Counter& calls();
  Counter& total_us();

 private:
  const char* name_;
  std::atomic<Counter*> calls_{nullptr};
  std::atomic<Counter*> total_us_{nullptr};
};

/// RAII span. Inactive (and free beyond the enabled() check) when
/// observability is off at construction time.
class ScopedSpan {
 public:
  explicit ScopedSpan(SpanSite& site);
  /// Dynamic-name variant for per-row / per-item spans. The name is copied;
  /// callers on hot paths should prefer OBS_SPAN's static site. This
  /// constructor allocates — guard construction with obs::enabled() when
  /// the name itself is built dynamically.
  explicit ScopedSpan(std::string name);
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanSite* site_ = nullptr;
  std::string dynamic_name_;
  std::uint64_t start_us_ = 0;
  bool active_ = false;
};

/// Microseconds since process start (steady clock).
std::uint64_t now_us() noexcept;

/// Microseconds since the Unix epoch (system clock). Request-timeline spans
/// use this base instead of now_us() so client and server dumps — written
/// by different processes with different steady-clock origins — land on one
/// shared axis and stitch into a single merged timeline.
std::uint64_t wall_us() noexcept;

/// Milliseconds since the Unix epoch: the wall_ms of the status files.
inline std::uint64_t wall_ms() noexcept { return wall_us() / 1000; }

// ---- Chrome trace_event sink ---------------------------------------------
// A bounded in-memory buffer of completed spans. Arm it around the region
// of interest, then write_chrome_trace() produces a JSON object loadable by
// chrome://tracing ({"traceEvents":[...]}). Events beyond the buffer cap
// are dropped and counted.

void set_trace_events_enabled(bool on) noexcept;
bool trace_events_enabled() noexcept;
void clear_trace_events();
std::size_t trace_event_count();
std::size_t dropped_trace_event_count();

/// Manually records one completed span ("ph":"X") with explicit timestamps
/// — for timelines whose stage boundaries are captured as clock reads, not
/// scopes (the serve request path). A nonzero trace_id is emitted as
/// "args":{"trace":"0x<hex>"} so offline tooling can group every span of
/// one request across files. No-op unless the sink is armed.
void record_span_event(const std::string& name, std::uint64_t ts_us,
                       std::uint64_t dur_us, std::uint64_t trace_id = 0);

/// Records a flow event ("ph":"s" start / "ph":"f" finish, bound to the
/// enclosing slice) keyed by trace_id. A start on the client's request span
/// and a finish on the server's timeline span with the same id make the
/// trace viewer draw the cross-process arrow that stitches the two dumps.
/// No-op unless the sink is armed.
void record_flow_event(const std::string& name, std::uint64_t trace_id,
                       bool start, std::uint64_t ts_us);

/// Writes the buffered events as Chrome trace JSON through
/// util::write_atomic: on failure returns false and an existing file at
/// `path` keeps its old bytes.
bool write_chrome_trace(const std::string& path);

/// Appends one trace_event record ("\n{...}") to `out`: a complete span
/// (ph 'X'; "args":{"trace":...} only when trace_id != 0) or a flow
/// endpoint (ph 's'/'f'; dur_us unused). Shared by write_chrome_trace and
/// the merged-timeline writer, so both dumps have one shape.
void append_chrome_event(std::string& out, const std::string& name, char ph,
                         std::size_t pid, std::size_t tid,
                         std::uint64_t ts_us, std::uint64_t dur_us,
                         std::uint64_t trace_id);

/// Frames comma-separated append_chrome_event records as one Chrome trace
/// document and writes it like write_chrome_trace.
bool write_chrome_events(const std::string& path, const std::string& events);

}  // namespace solsched::obs

/// Times the enclosing scope under `name` (a string literal).
#define OBS_SPAN(name)                                                   \
  static ::solsched::obs::SpanSite SOLSCHED_OBS_CONCAT(obs_span_site_,   \
                                                       __LINE__){name};  \
  ::solsched::obs::ScopedSpan SOLSCHED_OBS_CONCAT(obs_span_, __LINE__) { \
    SOLSCHED_OBS_CONCAT(obs_span_site_, __LINE__)                        \
  }
