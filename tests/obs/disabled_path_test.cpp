// The disabled-path contract: with observability off, the OBS_* macros and
// ScopedSpan cost one atomic load and a branch — zero heap allocation.
//
// Allocation is counted by tests/counting_allocator.cpp, which replaces the
// global operator new, so this test lives in its own binary. Counting is
// scoped: only the instrumented region between the counter reads matters,
// and the region runs the macros many times to catch one-shot allocations
// (static-init, registry touches) as well as per-call ones.
#include <gtest/gtest.h>

#include <vector>

#include "../counting_allocator.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"

namespace solsched::obs {
namespace {

TEST(DisabledPathTest, MacrosDoNotAllocate) {
  set_enabled(false);
  // Warm up: thread_ordinal's thread_local and any lazy statics outside the
  // measured window.
  OBS_COUNTER_ADD("test.disabled.warmup", 1);

  const std::uint64_t before = test::allocation_count();
  for (int i = 0; i < 10000; ++i) {
    OBS_COUNTER_ADD("test.disabled.counter", i);
    OBS_GAUGE_SET("test.disabled.gauge", static_cast<double>(i));
    OBS_HISTOGRAM_OBSERVE("test.disabled.hist",
                          (std::vector<double>{1.0, 2.0}),
                          static_cast<double>(i));
    OBS_SPAN("test.disabled.span");
  }
  const std::uint64_t after = test::allocation_count();
  EXPECT_EQ(after, before);

  // Nothing leaked into the registry either.
  set_enabled(true);
  const MetricsSnapshot snap = MetricsRegistry::global().snapshot();
  EXPECT_EQ(snap.counter_or("test.disabled.counter"), 0u);
  EXPECT_EQ(snap.counter_or("span.test.disabled.span.calls"), 0u);
  set_enabled(false);
}

TEST(DisabledPathTest, EnabledPathAllocatesOnlyOnFirstTouch) {
  set_enabled(true);
  MetricsRegistry::global().reset();
  // The per-call-site caches are function-local statics, so warm-up and
  // measurement must share the same call sites: one lambda body.
  auto touch = [] {
    OBS_COUNTER_ADD("test.firsttouch.counter", 1);
    OBS_SPAN("test.firsttouch.span");
  };
  // First execution registers the metrics (allocation expected) ...
  touch();
  // ... subsequent executions hit the cached references: no allocation.
  const std::uint64_t before = test::allocation_count();
  for (int i = 0; i < 1000; ++i) touch();
  const std::uint64_t after = test::allocation_count();
  EXPECT_EQ(after, before);
  const MetricsSnapshot snap = MetricsRegistry::global().snapshot();
  EXPECT_EQ(snap.counter_or("test.firsttouch.counter"), 1001u);
  EXPECT_EQ(snap.counter_or("span.test.firsttouch.span.calls"), 1001u);
  set_enabled(false);
}

}  // namespace
}  // namespace solsched::obs
