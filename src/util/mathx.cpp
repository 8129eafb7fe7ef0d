#include "util/mathx.hpp"

#include <cmath>
#include <stdexcept>

namespace solsched::util {

std::vector<double> linspace(double lo, double hi, std::size_t n) {
  if (n == 0) return {};
  if (n == 1) return {lo};
  std::vector<double> out(n);
  const double step = (hi - lo) / static_cast<double>(n - 1);
  for (std::size_t i = 0; i < n; ++i)
    out[i] = lo + step * static_cast<double>(i);
  out.back() = hi;
  return out;
}

double interp1(const std::vector<double>& xs, const std::vector<double>& ys,
               double x) {
  if (xs.empty() || xs.size() != ys.size())
    throw std::invalid_argument("interp1: mismatched or empty tables");
  if (x <= xs.front()) return ys.front();
  if (x >= xs.back()) return ys.back();
  // Binary search for the enclosing segment.
  std::size_t lo = 0, hi = xs.size() - 1;
  while (hi - lo > 1) {
    const std::size_t mid = (lo + hi) / 2;
    if (xs[mid] <= x)
      lo = mid;
    else
      hi = mid;
  }
  const double t = (x - xs[lo]) / (xs[hi] - xs[lo]);
  return lerp(ys[lo], ys[hi], t);
}

bool solve_linear(std::vector<double> a, std::vector<double> b, std::size_t n,
                  std::vector<double>& x) {
  if (a.size() != n * n || b.size() != n) return false;
  for (std::size_t col = 0; col < n; ++col) {
    // Partial pivot.
    std::size_t pivot = col;
    for (std::size_t row = col + 1; row < n; ++row)
      if (std::fabs(a[row * n + col]) > std::fabs(a[pivot * n + col]))
        pivot = row;
    if (std::fabs(a[pivot * n + col]) < 1e-12) return false;
    if (pivot != col) {
      for (std::size_t k = 0; k < n; ++k)
        std::swap(a[pivot * n + k], a[col * n + k]);
      std::swap(b[pivot], b[col]);
    }
    for (std::size_t row = col + 1; row < n; ++row) {
      const double factor = a[row * n + col] / a[col * n + col];
      for (std::size_t k = col; k < n; ++k)
        a[row * n + k] -= factor * a[col * n + k];
      b[row] -= factor * b[col];
    }
  }
  x.assign(n, 0.0);
  for (std::size_t i = n; i > 0; --i) {
    const std::size_t row = i - 1;
    double acc = b[row];
    for (std::size_t k = row + 1; k < n; ++k) acc -= a[row * n + k] * x[k];
    x[row] = acc / a[row * n + row];
  }
  return true;
}

}  // namespace solsched::util
