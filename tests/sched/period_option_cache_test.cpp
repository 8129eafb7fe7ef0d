#include "sched/period_option_cache.hpp"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <exception>
#include <functional>
#include <memory>
#include <span>
#include <stdexcept>
#include <thread>
#include <vector>

namespace solsched::sched {
namespace {

std::vector<PeriodOption> make_options(std::size_t misses) {
  PeriodOption opt;
  opt.misses = misses;
  opt.consumed_cap_j = static_cast<double>(misses) * 0.5;
  return {opt};
}

TEST(PeriodOptionCache, MissThenHit) {
  PeriodOptionCache cache;
  const std::vector<double> solar{0.1, 0.2, 0.3};
  int computes = 0;
  auto compute = [&] {
    ++computes;
    return make_options(2);
  };

  auto first = cache.lookup_or_compute(solar, 20e-3, 2.5, compute);
  ASSERT_TRUE(first);
  EXPECT_EQ(first->at(0).misses, 2u);
  EXPECT_EQ(computes, 1);
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_EQ(cache.stats().misses, 1u);

  auto second = cache.lookup_or_compute(solar, 20e-3, 2.5, compute);
  EXPECT_EQ(computes, 1);  // Served from cache, compute not called again.
  EXPECT_EQ(second.get(), first.get());
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().entries, 1u);
  EXPECT_DOUBLE_EQ(cache.stats().hit_rate(), 0.5);
}

TEST(PeriodOptionCache, DistinctKeysMiss) {
  PeriodOptionCache cache;
  const std::vector<double> solar_a{0.1, 0.2};
  const std::vector<double> solar_b{0.1, 0.3};
  int computes = 0;
  auto compute = [&] {
    ++computes;
    return make_options(0);
  };

  cache.lookup_or_compute(solar_a, 20e-3, 2.5, compute);
  cache.lookup_or_compute(solar_b, 20e-3, 2.5, compute);  // Solar differs.
  cache.lookup_or_compute(solar_a, 60e-3, 2.5, compute);  // Capacity differs.
  cache.lookup_or_compute(solar_a, 20e-3, 2.6, compute);  // v0 differs.
  EXPECT_EQ(computes, 4);
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_EQ(cache.stats().misses, 4u);
  EXPECT_EQ(cache.stats().entries, 4u);
}

TEST(PeriodOptionCache, FifoEviction) {
  PeriodOptionCache cache(/*max_entries=*/2);
  int computes = 0;
  auto compute = [&] {
    ++computes;
    return make_options(1);
  };

  cache.lookup_or_compute({0.1}, 20e-3, 2.5, compute);
  cache.lookup_or_compute({0.2}, 20e-3, 2.5, compute);
  EXPECT_EQ(cache.stats().evictions, 0u);

  // Third insert evicts the oldest ({0.1}); re-requesting it recomputes.
  cache.lookup_or_compute({0.3}, 20e-3, 2.5, compute);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.stats().entries, 2u);

  cache.lookup_or_compute({0.1}, 20e-3, 2.5, compute);
  EXPECT_EQ(computes, 4);
  EXPECT_EQ(cache.stats().hits, 0u);

  // {0.3} survived the FIFO churn ({0.2} was evicted by the reinsert).
  cache.lookup_or_compute({0.3}, 20e-3, 2.5, compute);
  EXPECT_EQ(computes, 4);
  EXPECT_EQ(cache.stats().hits, 1u);
}

TEST(PeriodOptionCache, PointerSurvivesEviction) {
  PeriodOptionCache cache(/*max_entries=*/1);
  auto held = cache.lookup_or_compute({0.1}, 20e-3, 2.5,
                                      [] { return make_options(3); });
  cache.lookup_or_compute({0.2}, 20e-3, 2.5, [] { return make_options(0); });
  EXPECT_EQ(cache.stats().evictions, 1u);
  // The evicted entry is shared_ptr-owned; the holder keeps it alive.
  ASSERT_TRUE(held);
  EXPECT_EQ(held->at(0).misses, 3u);
}

TEST(PeriodOptionCache, ClearResets) {
  PeriodOptionCache cache;
  int computes = 0;
  auto compute = [&] {
    ++computes;
    return make_options(0);
  };
  cache.lookup_or_compute({0.1}, 20e-3, 2.5, compute);
  cache.clear();
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_EQ(cache.stats().misses, 0u);
  cache.lookup_or_compute({0.1}, 20e-3, 2.5, compute);
  EXPECT_EQ(computes, 2);  // Cleared, so the entry had to be recomputed.
}

// Polls `done` until it holds or a bounded wait expires, so a regression
// fails an assertion instead of hanging the suite.
template <typename Pred>
void wait_until(Pred done) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!done() && std::chrono::steady_clock::now() < deadline)
    std::this_thread::yield();
}

TEST(PeriodOptionCache, ConcurrentRequestsComputeOnce) {
  // Single flight: the first request computes; the other three either wait
  // for that flight or arrive after it landed. Both count as hits, so the
  // counters equal a serial run's (1 miss, 3 hits).
  PeriodOptionCache cache;
  std::atomic<int> computes{0};
  auto compute = [&] {
    ++computes;
    wait_until([&] { return cache.stats().hits >= 3; });
    return make_options(1);
  };
  std::vector<PeriodOptionCache::Value> got(4);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < got.size(); ++t)
    threads.emplace_back([&, t] {
      got[t] = cache.lookup_or_compute({0.1}, 20e-3, 2.5, compute);
    });
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(computes.load(), 1);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 3u);
  EXPECT_EQ(cache.stats().entries, 1u);
  for (const auto& value : got) EXPECT_EQ(value.get(), got[0].get());
}

TEST(PeriodOptionCache, FailedComputeRethrowsToWaitersAndIsNotCached) {
  PeriodOptionCache cache;
  std::atomic<bool> started{false};
  std::thread computing([&] {
    EXPECT_THROW(cache.lookup_or_compute({0.1}, 20e-3, 2.5,
                                         [&]() -> std::vector<PeriodOption> {
                                           started = true;
                                           // Fail only once the waiter
                                           // has joined this flight.
                                           wait_until([&] {
                                             return cache.stats().hits >= 1;
                                           });
                                           throw std::runtime_error("boom");
                                         }),
                 std::runtime_error);
  });
  wait_until([&] { return started.load(); });
  try {
    cache.lookup_or_compute({0.1}, 20e-3, 2.5,
                            [] { return make_options(0); });
    ADD_FAILURE() << "the waiter must rethrow the flight's exception";
    computing.join();
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom");
    // Both threads hold the one exception object. Joining while this
    // catch still holds it makes the computing thread's release happen
    // before ours through a join ThreadSanitizer sees, so the free is ours
    // and ordered. Otherwise whichever thread released last freed it
    // through libstdc++'s uninstrumented refcount: a race TSan reports.
    computing.join();
  }
  EXPECT_EQ(cache.stats().entries, 0u);

  // Nothing was cached: the next request computes afresh.
  const auto value = cache.lookup_or_compute({0.1}, 20e-3, 2.5,
                                             [] { return make_options(2); });
  EXPECT_EQ(value->at(0).misses, 2u);
  EXPECT_EQ(cache.stats().misses, 2u);
  EXPECT_EQ(cache.stats().entries, 1u);
}

// Batch compute for the tests below: one option set per key whose miss
// count is the key's v0, counting how often each v0 is computed.
struct CountingBatch {
  std::array<std::atomic<int>, 8> computes{};
  std::function<void()> before;  ///< Runs inside every compute (may block).

  PeriodOptionCache::BatchCompute fn() {
    return [this](std::span<const OptionKey> keys) {
      if (before) before();
      std::vector<std::vector<PeriodOption>> sets;
      for (const OptionKey& key : keys) {
        ++computes[static_cast<std::size_t>(key.v0)];
        sets.push_back(make_options(static_cast<std::size_t>(key.v0)));
      }
      return sets;
    };
  }
};

std::vector<OptionKey> keys_of(std::initializer_list<int> v0s) {
  std::vector<OptionKey> keys;
  for (int v0 : v0s) keys.push_back({20e-3, static_cast<double>(v0)});
  return keys;
}

TEST(PeriodOptionCache, BatchResolvesInOrderRepeatsAreHits) {
  PeriodOptionCache cache;
  CountingBatch batch;
  const auto keys = keys_of({1, 2, 1, 3});
  const auto got = cache.lookup_or_compute({0.1}, keys, batch.fn());
  ASSERT_EQ(got.size(), keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i)
    EXPECT_EQ(got[i]->at(0).misses, static_cast<std::size_t>(keys[i].v0));
  EXPECT_EQ(got[0].get(), got[2].get());  // The repeat shares the entry.
  EXPECT_EQ(cache.stats().misses, 3u);
  EXPECT_EQ(cache.stats().hits, 1u);
  // A batch whose keys are all cached never calls compute.
  batch.before = [] { ADD_FAILURE() << "compute called for cached keys"; };
  cache.lookup_or_compute({0.1}, keys_of({3, 1}), batch.fn());
  EXPECT_EQ(cache.stats().hits, 3u);
  for (int v0 = 1; v0 <= 3; ++v0) EXPECT_EQ(batch.computes[v0].load(), 1);
}

TEST(PeriodOptionCache, OverlappingBatchesComputeEachKeyOnce) {
  // Thread A asks for {1, 2, 1, 3}, thread B for {2, 3, 4}. A's compute
  // holds its flight until B has joined 2 and 3 as hits, so B computes
  // only 4 and waits on A for the rest. A serial run of the two batches
  // counts 4 misses and 3 hits (A's repeat of 1, B's 2 and 3).
  PeriodOptionCache cache;
  CountingBatch batch;
  std::atomic<bool> a_computing{false};
  batch.before = [&] {
    if (a_computing.exchange(true)) return;  // B's compute: no wait.
    wait_until([&] { return cache.stats().hits >= 3; });
  };
  std::vector<PeriodOptionCache::Value> got_a, got_b;
  std::thread a([&] {
    got_a = cache.lookup_or_compute({0.1}, keys_of({1, 2, 1, 3}), batch.fn());
  });
  wait_until([&] { return a_computing.load(); });
  std::thread b([&] {
    got_b = cache.lookup_or_compute({0.1}, keys_of({2, 3, 4}), batch.fn());
  });
  a.join();
  b.join();
  for (int v0 = 1; v0 <= 4; ++v0)
    EXPECT_EQ(batch.computes[v0].load(), 1) << "key " << v0;
  EXPECT_EQ(cache.stats().misses, 4u);
  EXPECT_EQ(cache.stats().hits, 3u);
  EXPECT_EQ(cache.stats().entries, 4u);
  ASSERT_EQ(got_a.size(), 4u);
  ASSERT_EQ(got_b.size(), 3u);
  EXPECT_EQ(got_a[1].get(), got_b[0].get());
  EXPECT_EQ(got_a[3].get(), got_b[1].get());
  EXPECT_EQ(got_b[2]->at(0).misses, 4u);
}

TEST(PeriodOptionCache, FailedBatchRethrowsToEveryWaiterAndCachesNothing) {
  // A's batch {1, 2} fails once a single-key waiter on 1 and B's batch
  // {2, 5} have joined its flights. Both waiters rethrow A's exception;
  // B's own key 5 still lands. The exception_ptrs are kept until every
  // thread is joined, so the exception object is freed on this thread,
  // ordered after every other thread's use (see the TSan note above).
  PeriodOptionCache cache;
  CountingBatch batch;
  std::atomic<bool> a_computing{false};
  const auto failing = [&](std::span<const OptionKey>)
      -> std::vector<std::vector<PeriodOption>> {
    a_computing = true;
    wait_until([&] { return cache.stats().hits >= 2; });
    throw std::runtime_error("boom");
  };
  std::array<std::exception_ptr, 3> errors;
  std::thread a([&] {
    try {
      cache.lookup_or_compute({0.1}, keys_of({1, 2}), failing);
    } catch (...) {
      errors[0] = std::current_exception();
    }
  });
  wait_until([&] { return a_computing.load(); });
  std::thread single([&] {
    try {
      cache.lookup_or_compute({0.1}, 20e-3, 1.0,
                              [] { return make_options(1); });
    } catch (...) {
      errors[1] = std::current_exception();
    }
  });
  std::thread b([&] {
    try {
      cache.lookup_or_compute({0.1}, keys_of({2, 5}), batch.fn());
    } catch (...) {
      errors[2] = std::current_exception();
    }
  });
  a.join();
  single.join();
  b.join();
  for (const std::exception_ptr& error : errors) {
    ASSERT_TRUE(error) << "every request on a failed key must rethrow";
    try {
      std::rethrow_exception(error);
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "boom");
    }
  }
  EXPECT_EQ(errors[0], errors[1]);
  EXPECT_EQ(errors[0], errors[2]);
  errors = {};
  EXPECT_EQ(batch.computes[5].load(), 1);
  EXPECT_EQ(cache.stats().entries, 1u);  // Only B's key 5.

  // The failed keys left the in-flight set: asking again computes them.
  const auto again = cache.lookup_or_compute({0.1}, keys_of({1, 2}),
                                             batch.fn());
  EXPECT_EQ(again[0]->at(0).misses, 1u);
  EXPECT_EQ(again[1]->at(0).misses, 2u);
  EXPECT_EQ(cache.stats().misses, 5u);
  EXPECT_EQ(cache.stats().entries, 3u);
}

TEST(QuantizeV0, ZeroStepsIsIdentity) {
  EXPECT_EQ(PeriodOptionCache::quantize_v0(2.345, 1.8, 3.3, 0), 2.345);
}

TEST(QuantizeV0, Idempotent) {
  const double v_low = 1.8, v_high = 3.3;
  for (std::size_t steps : {std::size_t{4}, std::size_t{16}, std::size_t{64}}) {
    for (double v0 = v_low; v0 <= v_high; v0 += 0.01) {
      const double q = PeriodOptionCache::quantize_v0(v0, v_low, v_high, steps);
      const double qq = PeriodOptionCache::quantize_v0(q, v_low, v_high, steps);
      ASSERT_EQ(q, qq) << "v0=" << v0 << " steps=" << steps;
    }
  }
}

TEST(QuantizeV0, StaysInRangeAndNearInput) {
  const double v_low = 1.8, v_high = 3.3;
  const std::size_t steps = 16;
  for (double v0 = v_low; v0 <= v_high; v0 += 0.005) {
    const double q = PeriodOptionCache::quantize_v0(v0, v_low, v_high, steps);
    ASSERT_GE(q, v_low - 1e-12);
    ASSERT_LE(q, v_high + 1e-12);
    // Grid spacing in volts varies (uniform in sqrt-energy), but with 16
    // steps over 1.5 V no point is further than ~0.2 V from its snap.
    ASSERT_LT(std::fabs(q - v0), 0.2) << "v0=" << v0;
  }
}

TEST(QuantizeV0, PreservesEndpoints) {
  const double v_low = 1.8, v_high = 3.3;
  EXPECT_NEAR(PeriodOptionCache::quantize_v0(v_low, v_low, v_high, 16), v_low,
              1e-9);
  EXPECT_NEAR(PeriodOptionCache::quantize_v0(v_high, v_low, v_high, 16),
              v_high, 1e-9);
}

TEST(QuantizeV0, CoarserGridMergesMoreInputs) {
  const double v_low = 1.8, v_high = 3.3;
  auto distinct = [&](std::size_t steps) {
    std::vector<double> values;
    for (double v0 = v_low; v0 <= v_high; v0 += 0.001) {
      const double q = PeriodOptionCache::quantize_v0(v0, v_low, v_high, steps);
      if (values.empty() || values.back() != q) values.push_back(q);
    }
    return values.size();
  };
  EXPECT_LE(distinct(4), std::size_t{5});
  EXPECT_LE(distinct(16), std::size_t{17});
  EXPECT_LT(distinct(4), distinct(16));
}

}  // namespace
}  // namespace solsched::sched
