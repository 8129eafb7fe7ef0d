#include "harness.hpp"

#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "obs/span.hpp"
#include "serve/protocol.hpp"
#include "solar/trace_generator.hpp"
#include "util/stats.hpp"

namespace solsched::perfbench {

void WorkloadResult::check(bool ok, const std::string& name,
                           const std::string& detail) {
  if (ok) return;
  ++failed;
  constexpr std::size_t kMaxListed = 20;  // Counted beyond, not listed.
  if (failed_checks.size() < kMaxListed)
    failed_checks.push_back(detail.empty() ? name : name + ": " + detail);
}

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

double quantile(std::vector<double> xs, double q) {
  return util::percentile(std::move(xs), 100.0 * q);
}

void reset_peak_rss() {
  malloc_trim(0);
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";  // Resets VmHWM to the current RSS.
  clear.close();
  if (!clear) throw std::runtime_error("cannot reset the peak RSS mark");
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0;  // Reported in kB.
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

std::string fnv1a_hex(const std::string& text) {
  const std::uint64_t h = serve::payload_fnv1a(
      reinterpret_cast<const std::uint8_t*>(text.data()), text.size());
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

solar::SolarTrace paper_trace(std::uint64_t seed) {
  solar::TraceGeneratorConfig config;
  config.seed = seed;
  return solar::TraceGenerator(config).generate_days(
      2, solar::default_grid(1), solar::DayKind::kPartlyCloudy);
}

nvp::NodeConfig paper_node() {
  nvp::NodeConfig node;
  node.grid = solar::default_grid(1);
  return node;
}

core::PipelineConfig paper_pipeline() {
  core::PipelineConfig config;
  config.n_caps = 4;
  return config;
}

SpanTrace::SpanTrace(std::string path) : path_(std::move(path)) {
  obs::clear_trace_events();
  obs::set_trace_events_enabled(true);
}

SpanTrace::~SpanTrace() { obs::set_trace_events_enabled(false); }

void SpanTrace::record(bool on) { obs::set_trace_events_enabled(on); }

obs::analysis::SpanProfile SpanTrace::finish() {
  obs::set_trace_events_enabled(false);
  if (obs::dropped_trace_event_count() > 0)
    throw std::runtime_error("span buffer overflowed; trace would be partial");
  if (!obs::write_chrome_trace(path_))
    throw std::runtime_error("cannot write " + path_);
  std::ifstream in(path_);
  std::stringstream text;
  text << in.rdbuf();
  obs::clear_trace_events();
  return obs::analysis::profile_trace(text.str());
}

void end_span(const std::string& name, std::uint64_t start_us) {
  obs::record_span_event(name, start_us, obs::now_us() - start_us);
}

double self_us(const obs::analysis::SpanProfile& profile,
               const std::string& name) {
  for (const auto& span : profile.spans)
    if (span.name == name) return static_cast<double>(span.self_us);
  return 0.0;
}

nvp::NodeConfig single_cap_node(const nvp::NodeConfig& sized,
                                const std::vector<double>& daily_optimal_f) {
  nvp::NodeConfig node = sized;
  const std::vector<double>& caps = node.capacities_f;
  std::size_t best = 0;
  if (!daily_optimal_f.empty()) {
    double mean = 0.0;
    for (double c : daily_optimal_f) mean += c;
    mean /= static_cast<double>(daily_optimal_f.size());
    for (std::size_t i = 1; i < caps.size(); ++i)
      if (std::fabs(caps[i] - mean) < std::fabs(caps[best] - mean)) best = i;
  } else {
    for (std::size_t i = 1; i < caps.size(); ++i)
      if (caps[i] > caps[best]) best = i;
  }
  node.initial_cap = best;
  return node;
}

namespace {

std::uint64_t ns_since(Clock::time_point t0) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0)
          .count());
}

}  // namespace

void TimedScheduler::begin_trace(const task::TaskGraph& graph,
                                 const nvp::NodeConfig& config,
                                 const solar::SolarTrace& trace) {
  const auto t0 = Clock::now();
  inner_->begin_trace(graph, config, trace);
  begin_trace_ns_ += ns_since(t0);
}

nvp::PeriodPlan TimedScheduler::begin_period(const nvp::PeriodContext& ctx) {
  const auto t0 = Clock::now();
  nvp::PeriodPlan plan = inner_->begin_period(ctx);
  decide_ns_ += ns_since(t0);
  return plan;
}

std::vector<std::size_t> TimedScheduler::schedule_slot(
    const nvp::SlotContext& ctx) {
  const auto t0 = Clock::now();
  std::vector<std::size_t> chosen = inner_->schedule_slot(ctx);
  decide_ns_ += ns_since(t0);
  return chosen;
}

void end_simulate_spans(std::uint64_t start_us, const TimedScheduler& timed,
                        const std::string& sim_name,
                        const std::string& solve_name,
                        const std::string& decide_name) {
  const std::uint64_t dur_us = obs::now_us() - start_us;
  obs::record_span_event(sim_name, start_us, dur_us);
  if (dur_us < 2) return;
  // Rounded to µs and clamped one µs short of the parent, so the profiler
  // (which orders equal starts by duration) always sees the parent first.
  const std::uint64_t room = dur_us - 1;
  const std::uint64_t solve_us =
      std::min<std::uint64_t>((timed.begin_trace_ns() + 500) / 1000, room);
  const std::uint64_t decide_us = std::min<std::uint64_t>(
      (timed.decide_ns() + 500) / 1000, room - solve_us);
  if (solve_us > 0) obs::record_span_event(solve_name, start_us, solve_us);
  if (decide_us > 0)
    obs::record_span_event(decide_name, start_us + solve_us, decide_us);
}

}  // namespace solsched::perfbench
