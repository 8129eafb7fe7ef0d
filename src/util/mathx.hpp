// Small numeric helpers shared by the physics and scheduling code.
#pragma once

#include <cstddef>
#include <vector>

namespace solsched::util {

/// Clamps x into [lo, hi]. Requires lo <= hi. Inline: this sits on the
/// per-slot storage path (tens of millions of calls per pipeline run).
inline double clamp(double x, double lo, double hi) noexcept {
  return x < lo ? lo : (x > hi ? hi : x);
}

/// Linear interpolation between a and b by t in [0, 1].
inline double lerp(double a, double b, double t) noexcept {
  return a + (b - a) * t;
}

/// n evenly spaced samples over [lo, hi] inclusive (n >= 2), or {lo} if n==1.
std::vector<double> linspace(double lo, double hi, std::size_t n);

/// Evaluates a polynomial with coefficients c (c[0] + c[1] x + ...; Horner).
/// Inline for the same reason as clamp: regulator eta evaluations call this
/// once per charge/discharge of every simulated slot.
inline double polyval(const std::vector<double>& coeffs, double x) noexcept {
  double acc = 0.0;
  for (std::size_t i = coeffs.size(); i > 0; --i) acc = acc * x + coeffs[i - 1];
  return acc;
}

/// Piecewise-linear interpolation through (xs, ys); xs strictly increasing.
/// Values outside the range clamp to the boundary ys.
double interp1(const std::vector<double>& xs, const std::vector<double>& ys,
               double x);

/// Solves the dense linear system A x = b (n x n, row-major) by Gaussian
/// elimination with partial pivoting. Returns false if singular (then x is
/// untouched).
bool solve_linear(std::vector<double> a, std::vector<double> b,
                  std::size_t n, std::vector<double>& x);

/// Golden-section search for the minimizer of f over [lo, hi].
/// f must be unimodal on the interval for an exact answer; otherwise a local
/// minimum is returned. tol is the final bracket width.
template <typename F>
double golden_minimize(F&& f, double lo, double hi, double tol = 1e-4) {
  constexpr double kInvPhi = 0.6180339887498949;
  double a = lo, b = hi;
  double c = b - (b - a) * kInvPhi;
  double d = a + (b - a) * kInvPhi;
  double fc = f(c), fd = f(d);
  while (b - a > tol) {
    if (fc < fd) {
      b = d;
      d = c;
      fd = fc;
      c = b - (b - a) * kInvPhi;
      fc = f(c);
    } else {
      a = c;
      c = d;
      fc = fd;
      d = a + (b - a) * kInvPhi;
      fd = f(d);
    }
  }
  return 0.5 * (a + b);
}

}  // namespace solsched::util
