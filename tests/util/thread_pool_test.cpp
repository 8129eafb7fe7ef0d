#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace solsched::util {
namespace {

TEST(ThreadPool, EmptyRangeIsNoop) {
  ThreadPool pool(4);
  std::atomic<int> calls{0};
  pool.run(0, [&](std::size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ThreadPool, CoversEveryIndexExactlyOnce) {
  for (std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    ThreadPool pool(threads);
    constexpr std::size_t n = 257;
    std::vector<std::atomic<int>> counts(n);
    pool.run(n, [&](std::size_t i) { counts[i].fetch_add(1); });
    for (std::size_t i = 0; i < n; ++i)
      ASSERT_EQ(counts[i].load(), 1) << "index " << i << " at " << threads
                                     << " threads";
  }
}

TEST(ThreadPool, SizeCountsCallingThread) {
  EXPECT_EQ(ThreadPool(0).size(), 1u);
  EXPECT_EQ(ThreadPool(1).size(), 1u);
  EXPECT_EQ(ThreadPool(3).size(), 3u);
}

TEST(ThreadPool, ExceptionPropagates) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.run(64, [&](std::size_t i) {
        if (i % 7 == 3) throw std::runtime_error("boom");
      }),
      std::runtime_error);
}

TEST(ThreadPool, SerialExceptionIsSmallestIndex) {
  // With one thread the serial fallback runs in index order, so the first
  // throwing index is what propagates and later indices never run.
  ThreadPool pool(1);
  std::vector<int> ran(10, 0);
  try {
    pool.run(10, [&](std::size_t i) {
      if (i == 4) throw std::runtime_error("at-4");
      ran[i] = 1;
    });
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "at-4");
  }
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(ran[i], 1);
  for (std::size_t i = 5; i < 10; ++i) EXPECT_EQ(ran[i], 0);
}

TEST(ThreadPool, ParallelExceptionSkipsRemainingWork) {
  ThreadPool pool(4);
  std::atomic<int> executed{0};
  EXPECT_THROW(pool.run(10000,
                        [&](std::size_t i) {
                          if (i == 0) throw std::runtime_error("early");
                          executed.fetch_add(1);
                        }),
               std::runtime_error);
  // Cancellation is advisory (indices already claimed still run), but the
  // bulk of the range must have been skipped.
  EXPECT_LT(executed.load(), 10000);
}

// Records the distinct threads that run one job's bodies. The body that
// arrives first waits (bounded, so a 1-CPU host cannot hang the test) for a
// second thread, so a fast thread cannot drain the whole job alone.
class Witness {
 public:
  void arrive(bool first) {
    std::unique_lock<std::mutex> lock(mutex_);
    ids_.insert(std::this_thread::get_id());
    cv_.notify_all();
    if (first)
      cv_.wait_for(lock, std::chrono::seconds(10),
                   [&] { return ids_.size() >= 2; });
  }
  std::size_t threads() {
    std::lock_guard<std::mutex> lock(mutex_);
    return ids_.size();
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  std::set<std::thread::id> ids_;
};

TEST(ThreadPool, NestedRunUsesIdleWorkers) {
  // Two outer bodies each open an inner job; the two idle workers must
  // join them instead of the inner jobs running serially in their callers.
  ThreadPool pool(4);
  Witness inner[2];
  pool.run(2, [&](std::size_t i) {
    pool.run(8, [&](std::size_t j) { inner[i].arrive(j == 0); });
  });
  EXPECT_GE(inner[0].threads(), 2u);
  EXPECT_GE(inner[1].threads(), 2u);
}

TEST(ThreadPool, NestedExceptionIsSmallestIndexAtBothLevels) {
  // Inner indices 1, 4 and 7 throw "i:j". Each level rethrows the smallest
  // index that threw, so the caller sees the smallest outer body that ran
  // with the smallest inner index that threw inside it.
  ThreadPool pool(4);
  constexpr std::size_t n = 8;
  std::mutex mutex;
  std::set<std::size_t> outer_ran;
  std::vector<std::set<std::size_t>> thrown(n);
  try {
    pool.run(n, [&](std::size_t i) {
      {
        std::lock_guard<std::mutex> lock(mutex);
        outer_ran.insert(i);
      }
      pool.run(n, [&](std::size_t j) {
        if (j % 3 != 1) return;
        {
          std::lock_guard<std::mutex> lock(mutex);
          thrown[i].insert(j);
        }
        throw std::runtime_error(std::to_string(i) + ":" + std::to_string(j));
      });
    });
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    std::lock_guard<std::mutex> lock(mutex);
    ASSERT_FALSE(outer_ran.empty());
    const std::size_t i = *outer_ran.begin();
    ASSERT_FALSE(thrown[i].empty());
    EXPECT_EQ(std::string(e.what()),
              std::to_string(i) + ":" + std::to_string(*thrown[i].begin()));
  }
}

TEST(ThreadPool, ConcurrentTopLevelCallersWithNestedRegions) {
  // Three threads outside the pool call run() at once, each with nested
  // regions; every (caller, i, j) slot is written exactly once.
  ThreadPool pool(4);
  constexpr std::size_t callers = 3, n = 16;
  std::vector<std::atomic<int>> hits(callers * n * n);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < callers; ++t)
    threads.emplace_back([&, t] {
      pool.run(n, [&](std::size_t i) {
        pool.run(n, [&](std::size_t j) {
          hits[(t * n + i) * n + j].fetch_add(1);
        });
      });
    });
  for (auto& thread : threads) thread.join();
  for (std::size_t k = 0; k < hits.size(); ++k)
    ASSERT_EQ(hits[k].load(), 1) << "slot " << k;
}

TEST(ThreadPool, ThreeLevelNestingIsExact) {
  // Per-index slots at every level, reduced serially in index order: the
  // sum is exact (small integers) and identical to the closed form.
  ThreadPool pool(4);
  constexpr std::size_t n = 6;
  std::vector<double> outer(n, 0.0);
  pool.run(n, [&](std::size_t i) {
    std::vector<double> middle(n, 0.0);
    pool.run(n, [&](std::size_t j) {
      std::vector<double> inner(n, 0.0);
      pool.run(n, [&](std::size_t k) {
        inner[k] = static_cast<double>(i * n * n + j * n + k);
      });
      for (double v : inner) middle[j] += v;
    });
    for (double v : middle) outer[i] += v;
  });
  double total = 0.0;
  for (double v : outer) total += v;
  constexpr double cells = n * n * n;
  EXPECT_EQ(total, cells * (cells - 1) / 2);
}

TEST(ThreadPool, NestedParallelForCompletes) {
  ThreadPool::set_global_threads(2);
  std::vector<double> out(16, 0.0);
  parallel_for(16, [&](std::size_t i) {
    std::vector<double> partial(4, 0.0);
    parallel_for(4, [&](std::size_t j) {
      partial[j] = static_cast<double>(i * 4 + j);
    });
    double acc = 0.0;
    for (double p : partial) acc += p;
    out[i] = acc;
  });
  for (std::size_t i = 0; i < out.size(); ++i)
    EXPECT_DOUBLE_EQ(out[i], static_cast<double>(16 * i + 6));
  ThreadPool::set_global_threads(ThreadPool::thread_count_from_env());
}

TEST(ThreadPool, SlotResultsIdenticalAcrossThreadCounts) {
  // The determinism contract: per-index slots + serial reduction give
  // bit-identical sums at every thread count.
  constexpr std::size_t n = 1000;
  auto reduce_with = [&](std::size_t threads) {
    ThreadPool pool(threads);
    std::vector<double> slots(n);
    pool.run(n, [&](std::size_t i) {
      slots[i] = 1.0 / (static_cast<double>(i) + 0.1);
    });
    double acc = 0.0;
    for (double s : slots) acc += s;
    return acc;
  };
  const double serial = reduce_with(1);
  EXPECT_EQ(serial, reduce_with(2));
  EXPECT_EQ(serial, reduce_with(4));
}

TEST(ThreadPool, ThreadCountFromEnv) {
  ::setenv("SOLSCHED_THREADS", "3", 1);
  EXPECT_EQ(ThreadPool::thread_count_from_env(), 3u);
  ::setenv("SOLSCHED_THREADS", "0", 1);
  EXPECT_GE(ThreadPool::thread_count_from_env(), 1u);  // Invalid -> hardware.
  ::unsetenv("SOLSCHED_THREADS");
  EXPECT_GE(ThreadPool::thread_count_from_env(), 1u);
}

// The documented SOLSCHED_THREADS grammar: decimal digits only, [1, 65536].
TEST(ThreadPool, ParseThreadCountGrammar) {
  EXPECT_EQ(ThreadPool::parse_thread_count("1"), 1u);
  EXPECT_EQ(ThreadPool::parse_thread_count("4"), 4u);
  EXPECT_EQ(ThreadPool::parse_thread_count("65536"), 65536u);
  EXPECT_EQ(ThreadPool::parse_thread_count("65537"), 0u);
  EXPECT_EQ(ThreadPool::parse_thread_count("0"), 0u);
  EXPECT_EQ(ThreadPool::parse_thread_count(""), 0u);
  EXPECT_EQ(ThreadPool::parse_thread_count(nullptr), 0u);
  EXPECT_EQ(ThreadPool::parse_thread_count("-2"), 0u);
  EXPECT_EQ(ThreadPool::parse_thread_count("+4"), 0u);
  EXPECT_EQ(ThreadPool::parse_thread_count(" 4"), 0u);
  EXPECT_EQ(ThreadPool::parse_thread_count("4 "), 0u);
  EXPECT_EQ(ThreadPool::parse_thread_count("0x4"), 0u);
  EXPECT_EQ(ThreadPool::parse_thread_count("all"), 0u);
  EXPECT_EQ(ThreadPool::parse_thread_count("4t"), 0u);
  EXPECT_EQ(ThreadPool::parse_thread_count("18446744073709551617"), 0u);
}

// Malformed values warn (once) and fall back instead of silently pinning
// the pool to hardware_concurrency while the user believes they set 1.
TEST(ThreadPool, MalformedEnvFallsBackToHardware) {
  for (const char* bad : {"all", "-2", "0", "1.5", ""}) {
    ::setenv("SOLSCHED_THREADS", bad, 1);
    EXPECT_GE(ThreadPool::thread_count_from_env(), 1u) << bad;
  }
  ::setenv("SOLSCHED_THREADS", "2", 1);
  EXPECT_EQ(ThreadPool::thread_count_from_env(), 2u);
  ::unsetenv("SOLSCHED_THREADS");
}

TEST(ThreadPool, SetGlobalThreadsReplacesPool) {
  ThreadPool::set_global_threads(3);
  EXPECT_EQ(ThreadPool::global().size(), 3u);
  ThreadPool::set_global_threads(1);
  EXPECT_EQ(ThreadPool::global().size(), 1u);
  ThreadPool::set_global_threads(ThreadPool::thread_count_from_env());
}

}  // namespace
}  // namespace solsched::util
