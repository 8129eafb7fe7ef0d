// Descriptive statistics over sample vectors (metrics aggregation).
#pragma once

#include <cstddef>
#include <vector>

namespace solsched::util {

/// Index of the nearest-rank percentile in a sorted sample of size n:
/// floor((n-1) * percent / 100), computed in integer arithmetic so the
/// campaign aggregates and metrics_report quantile columns stay
/// bit-reproducible (no float rounding at bucket boundaries). Returns 0
/// for n == 0; percent must be in [0, 100].
constexpr std::size_t nearest_rank_index(std::size_t n,
                                         std::size_t percent) noexcept {
  return n == 0 ? 0 : (n - 1) * percent / 100;
}

/// Arithmetic mean; 0 for an empty sample.
double mean(const std::vector<double>& xs) noexcept;

/// Population standard deviation; 0 for fewer than two samples.
double stddev(const std::vector<double>& xs) noexcept;

/// Minimum; 0 for an empty sample.
double min_of(const std::vector<double>& xs) noexcept;

/// Maximum; 0 for an empty sample.
double max_of(const std::vector<double>& xs) noexcept;

/// Sum of samples.
double sum(const std::vector<double>& xs) noexcept;

/// Linear-interpolated percentile, p in [0, 100]; 0 for an empty sample.
double percentile(std::vector<double> xs, double p) noexcept;

/// Pearson correlation of two equal-length samples; 0 if degenerate.
double correlation(const std::vector<double>& xs,
                   const std::vector<double>& ys) noexcept;

}  // namespace solsched::util
