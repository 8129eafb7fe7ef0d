// Shared fixtures and miniature configurations for fast unit tests.
//
// Tests run on a shrunk "day" (fewer periods) so whole pipeline runs finish
// in milliseconds; the clear-sky model is rescaled so the shrunk day still
// has a dawn/noon/night structure.
#pragma once

#include <signal.h>
#include <sys/resource.h>

#include "nvp/node_config.hpp"
#include "solar/trace_generator.hpp"
#include "task/benchmarks.hpp"

namespace solsched::test {

/// Tiny grid: 12 periods x 10 slots x 30 s (1-hour "day").
inline solar::TimeGrid tiny_grid(std::size_t n_days = 1) {
  return solar::TimeGrid{n_days, 12, 10, 30.0};
}

/// Small grid: 24 periods x 20 slots x 30 s (4-hour "day").
inline solar::TimeGrid small_grid(std::size_t n_days = 1) {
  return solar::TimeGrid{n_days, 24, 20, 30.0};
}

/// Generator whose clear-sky window fits the shrunk day of `grid`.
inline solar::TraceGenerator scaled_generator(const solar::TimeGrid& grid,
                                              std::uint64_t seed = 42) {
  solar::TraceGeneratorConfig config;
  config.seed = seed;
  const double day_s = grid.day_s();
  config.clear_sky.sunrise_s = 0.25 * day_s;
  config.clear_sky.sunset_s = 0.75 * day_s;
  return solar::TraceGenerator(config);
}

/// Node config bound to the given grid with a small default bank.
inline nvp::NodeConfig small_node(const solar::TimeGrid& grid) {
  nvp::NodeConfig node;
  node.grid = grid;
  node.capacities_f = {5.0, 20.0, 60.0};
  return node;
}

/// Tiny two-task benchmark on one NVP (chain t0 -> t1).
inline task::TaskGraph chain2() {
  std::vector<task::Task> tasks = {
      {0, "a", 120.0, 60.0, 0.02, 0},
      {1, "b", 300.0, 60.0, 0.03, 0},
  };
  return task::TaskGraph("chain2", std::move(tasks), {{0, 1}});
}

/// Three independent tasks on two NVPs.
inline task::TaskGraph indep3() {
  std::vector<task::Task> tasks = {
      {0, "x", 150.0, 60.0, 0.015, 0},
      {1, "y", 300.0, 90.0, 0.025, 1},
      {2, "z", 300.0, 30.0, 0.010, 0},
  };
  return task::TaskGraph("indep3", std::move(tasks), {});
}

/// Caps the size of any file this process writes at `bytes` (RLIMIT_FSIZE)
/// for the guard's lifetime, so a write past it fails with EFBIG instead of
/// raising SIGXFSZ. Makes a write fail mid-file even for root, for whom a
/// read-only directory is still writable.
class FileSizeLimit {
 public:
  explicit FileSizeLimit(rlim_t bytes) {
    previous_signal_ = ::signal(SIGXFSZ, SIG_IGN);
    ::getrlimit(RLIMIT_FSIZE, &previous_);
    rlimit limit = previous_;
    limit.rlim_cur = bytes;
    ::setrlimit(RLIMIT_FSIZE, &limit);
  }
  ~FileSizeLimit() {
    ::setrlimit(RLIMIT_FSIZE, &previous_);
    ::signal(SIGXFSZ, previous_signal_);
  }
  FileSizeLimit(const FileSizeLimit&) = delete;
  FileSizeLimit& operator=(const FileSizeLimit&) = delete;

 private:
  rlimit previous_{};
  sighandler_t previous_signal_;
};

}  // namespace solsched::test
