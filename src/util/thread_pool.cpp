#include "util/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <limits>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/span.hpp"

namespace solsched::util {

struct ThreadPool::Impl {
  struct Job {
    const std::function<void(std::size_t)>* fn = nullptr;
    std::size_t n = 0;
    std::atomic<std::size_t> next{0};
    std::size_t active = 0;  ///< Workers inside work_on; guarded by mutex.
    std::atomic<bool> cancelled{false};
    // First exception by smallest index, so rethrow order is deterministic.
    std::mutex err_mutex;
    std::size_t err_index = std::numeric_limits<std::size_t>::max();
    std::exception_ptr error;
  };

  std::size_t n_threads = 1;
  std::vector<std::thread> workers;

  std::mutex mutex;
  std::condition_variable work_cv;  ///< Wakes idle workers on a new job.
  std::condition_variable done_cv;  ///< Wakes callers waiting on their job.
  // Open jobs in publication order. A nested job is published after the
  // job whose body started it, so the back is the innermost.
  std::vector<Job*> open;
  bool shutdown = false;

  // `next` grows outside the mutex, which only ever makes a job
  // unclaimable; a job becomes claimable only when published under the
  // mutex with a notify, so an idle worker cannot miss one.
  Job* claimable_job() const {
    for (auto it = open.rbegin(); it != open.rend(); ++it)
      if ((*it)->next.load(std::memory_order_relaxed) < (*it)->n) return *it;
    return nullptr;
  }

  static void record_error(Job& job, std::size_t index) {
    std::lock_guard<std::mutex> lock(job.err_mutex);
    if (index < job.err_index) {
      job.err_index = index;
      job.error = std::current_exception();
    }
    job.cancelled.store(true, std::memory_order_relaxed);
  }

  static void work_on(Job& job) {
    for (;;) {
      const std::size_t i = job.next.fetch_add(1, std::memory_order_relaxed);
      if (i >= job.n) return;
      if (job.cancelled.load(std::memory_order_relaxed)) continue;
      try {
        (*job.fn)(i);
      } catch (...) {
        record_error(job, i);
      }
    }
  }

  // Only an idle worker claims: a thread inside a body that waits on its
  // own nested job claims nothing, so waits form a tree and cannot cycle.
  void worker_loop() {
    for (;;) {
      Job* job = nullptr;
      {
        std::unique_lock<std::mutex> lock(mutex);
        job = claimable_job();
        if (!job && !shutdown) {
          // Idle: no open job has an unclaimed index.
          const std::uint64_t wait_start = obs::enabled() ? obs::now_us() : 0;
          work_cv.wait(lock, [&] {
            return shutdown || (job = claimable_job()) != nullptr;
          });
          if (wait_start != 0)
            OBS_COUNTER_ADD("util.thread_pool.idle_us",
                            obs::now_us() - wait_start);
        }
        if (!job) return;
        // Registered under the mutex so run() cannot retire the job while
        // this worker still holds a pointer to it.
        ++job->active;
      }
      work_on(*job);
      {
        std::lock_guard<std::mutex> lock(mutex);
        --job->active;
      }
      done_cv.notify_all();
    }
  }
};

ThreadPool::ThreadPool(std::size_t n_threads) : impl_(new Impl) {
  impl_->n_threads = n_threads == 0 ? 1 : n_threads;
  OBS_GAUGE_SET("util.thread_pool.threads", impl_->n_threads);
  impl_->workers.reserve(impl_->n_threads - 1);
  for (std::size_t t = 0; t + 1 < impl_->n_threads; ++t)
    impl_->workers.emplace_back([this] { impl_->worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(impl_->mutex);
    impl_->shutdown = true;
  }
  impl_->work_cv.notify_all();
  for (auto& w : impl_->workers) w.join();
}

std::size_t ThreadPool::size() const noexcept { return impl_->n_threads; }

void ThreadPool::run(std::size_t n,
                     const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  // jobs/indices count every run() call identically at any thread count;
  // parallel_jobs (and idle_us above) describe the execution shape and are
  // excluded from determinism comparisons (MetricsSnapshot::without_timing).
  OBS_COUNTER_ADD("util.thread_pool.jobs", 1);
  OBS_COUNTER_ADD("util.thread_pool.indices", n);
  if (n == 1 || impl_->workers.empty()) {
    // Serial path: exceptions propagate directly; remaining indices are
    // skipped exactly as in the parallel path.
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }

  OBS_COUNTER_ADD("util.thread_pool.parallel_jobs", 1);
  Impl::Job job;
  job.fn = &fn;
  job.n = n;
  {
    std::lock_guard<std::mutex> lock(impl_->mutex);
    impl_->open.push_back(&job);
  }
  impl_->work_cv.notify_all();

  // The caller works on its own job, then waits. Once work_on returns every
  // index is claimed, so no active worker means every index has finished.
  Impl::work_on(job);
  {
    std::unique_lock<std::mutex> lock(impl_->mutex);
    impl_->done_cv.wait(lock, [&] { return job.active == 0; });
    impl_->open.erase(
        std::find(impl_->open.begin(), impl_->open.end(), &job));
  }
  if (job.error) std::rethrow_exception(job.error);
}

namespace {

std::unique_ptr<ThreadPool>& global_slot() {
  static std::unique_ptr<ThreadPool> pool;
  return pool;
}

std::mutex& global_mutex() {
  static std::mutex m;
  return m;
}

}  // namespace

ThreadPool& ThreadPool::global() {
  std::lock_guard<std::mutex> lock(global_mutex());
  auto& slot = global_slot();
  if (!slot) slot.reset(new ThreadPool(thread_count_from_env()));
  return *slot;
}

void ThreadPool::set_global_threads(std::size_t n_threads) {
  std::lock_guard<std::mutex> lock(global_mutex());
  global_slot().reset(new ThreadPool(n_threads));
}

std::size_t ThreadPool::parse_thread_count(const char* text) noexcept {
  if (text == nullptr || *text == '\0') return 0;
  std::size_t value = 0;
  for (const char* p = text; *p != '\0'; ++p) {
    if (*p < '0' || *p > '9') return 0;
    value = value * 10 + static_cast<std::size_t>(*p - '0');
    if (value > 65536) return 0;
  }
  return value;  // 0 stays invalid: a zero-thread pin is a typo.
}

std::size_t ThreadPool::thread_count_from_env() {
  const unsigned hw = std::thread::hardware_concurrency();
  const std::size_t fallback = hw == 0 ? 1 : static_cast<std::size_t>(hw);
  if (const char* env = std::getenv("SOLSCHED_THREADS")) {
    const std::size_t parsed = parse_thread_count(env);
    if (parsed > 0) return parsed;
    // Warn once: silently substituting hardware_concurrency would break the
    // thread-count pin the user thought they made (and with it any
    // expectation of run-shape reproducibility they attached to it).
    static std::atomic<bool> warned{false};
    if (!warned.exchange(true))
      std::fprintf(stderr,
                   "solsched: ignoring SOLSCHED_THREADS=\"%s\" (expected a "
                   "decimal integer in [1, 65536]); using %zu threads\n",
                   env, fallback);
  }
  return fallback;
}

}  // namespace solsched::util
