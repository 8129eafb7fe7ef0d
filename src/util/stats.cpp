#include "util/stats.hpp"

#include <algorithm>
#include <cmath>

namespace solsched::util {

double mean(const std::vector<double>& xs) noexcept {
  if (xs.empty()) return 0.0;
  double acc = 0.0;
  for (double x : xs) acc += x;
  return acc / static_cast<double>(xs.size());
}

double stddev(const std::vector<double>& xs) noexcept {
  if (xs.size() < 2) return 0.0;
  const double m = mean(xs);
  double acc = 0.0;
  for (double x : xs) acc += (x - m) * (x - m);
  return std::sqrt(acc / static_cast<double>(xs.size()));
}

double min_of(const std::vector<double>& xs) noexcept {
  return xs.empty() ? 0.0 : *std::min_element(xs.begin(), xs.end());
}

double max_of(const std::vector<double>& xs) noexcept {
  return xs.empty() ? 0.0 : *std::max_element(xs.begin(), xs.end());
}

double sum(const std::vector<double>& xs) noexcept {
  double acc = 0.0;
  for (double x : xs) acc += x;
  return acc;
}

double percentile(std::vector<double> xs, double p) noexcept {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  if (p <= 0.0) return xs.front();
  if (p >= 100.0) return xs.back();
  const double rank = p / 100.0 * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const double frac = rank - static_cast<double>(lo);
  if (lo + 1 >= xs.size()) return xs.back();
  return xs[lo] + frac * (xs[lo + 1] - xs[lo]);
}

double correlation(const std::vector<double>& xs,
                   const std::vector<double>& ys) noexcept {
  if (xs.size() != ys.size() || xs.size() < 2) return 0.0;
  const double mx = mean(xs), my = mean(ys);
  double sxy = 0.0, sxx = 0.0, syy = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const double dx = xs[i] - mx, dy = ys[i] - my;
    sxy += dx * dy;
    sxx += dx * dx;
    syy += dy * dy;
  }
  if (sxx <= 0.0 || syy <= 0.0) return 0.0;
  return sxy / std::sqrt(sxx * syy);
}

}  // namespace solsched::util
