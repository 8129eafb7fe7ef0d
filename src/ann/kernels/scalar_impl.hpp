// Scalar reference bodies for the kernel layer.
//
// These loops *define* the numeric semantics of every kernel: the SIMD
// bodies must reproduce them bit for bit (see kernels.hpp). They are the
// fallback for SOLSCHED_SIMD=OFF builds and for hardware without the
// compiled ISA, and the parity oracle for the `simd` test suite. Compiled
// in ISO mode (-std=c++20 ⇒ no FP contraction), so a·b + c here is two
// rounded operations — the vector bodies use separate mul/add intrinsics
// to match.
#pragma once

#include <cstddef>

#include "ann/kernels/exp_kernel.hpp"

namespace solsched::ann::kernels::scalar {

inline void gemv(const double* w, std::size_t rows, std::size_t cols,
                 const double* x, double* y) noexcept {
  for (std::size_t r = 0; r < rows; ++r) {
    double acc = 0.0;
    const double* row = w + r * cols;
    for (std::size_t c = 0; c < cols; ++c) acc += row[c] * x[c];
    y[r] = acc;
  }
}

inline void gemv_t_acc(const double* w, std::size_t rows, std::size_t cols,
                       const double* x, double* y) noexcept {
  for (std::size_t r = 0; r < rows; ++r) {
    const double xr = x[r];
    const double* row = w + r * cols;
    for (std::size_t c = 0; c < cols; ++c) y[c] += row[c] * xr;
  }
}

inline void sigmoid_n(double* v, std::size_t n) noexcept {
  for (std::size_t i = 0; i < n; ++i) v[i] = sigmoid_d(v[i]);
}

inline void sigmoid_deriv_mul_n(double* d, const double* s,
                                std::size_t n) noexcept {
  for (std::size_t i = 0; i < n; ++i) d[i] *= s[i] * (1.0 - s[i]);
}

inline void momentum_row_n(double* w, double* v, const double* b, double a,
                           double momentum, double coeff, double decay,
                           std::size_t n) noexcept {
  for (std::size_t i = 0; i < n; ++i) {
    const double grad = a * b[i] + decay * w[i];
    v[i] = momentum * v[i] + coeff * grad;
    w[i] += v[i];
  }
}

inline void momentum_row2_n(double* w, double* v, const double* b1, double a1,
                            const double* b2, double a2, double momentum,
                            double coeff, double decay,
                            std::size_t n) noexcept {
  for (std::size_t i = 0; i < n; ++i) {
    const double grad = a1 * b1[i] - a2 * b2[i] + decay * w[i];
    v[i] = momentum * v[i] + coeff * grad;
    w[i] += v[i];
  }
}

inline void bias_momentum_n(double* b, double* v, const double* d,
                            double momentum, double lr,
                            std::size_t n) noexcept {
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = momentum * v[i] - lr * d[i];
    b[i] += v[i];
  }
}

inline void bias_momentum2_n(double* b, double* v, const double* d1,
                             const double* d2, double momentum, double lr,
                             std::size_t n) noexcept {
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = momentum * v[i] + lr * (d1[i] - d2[i]);
    b[i] += v[i];
  }
}

inline void add_n(double* v, const double* w, std::size_t n) noexcept {
  for (std::size_t i = 0; i < n; ++i) v[i] += w[i];
}

inline void gemm_batch(const double* w, std::size_t rows, std::size_t cols,
                       const double* x, std::size_t n_samples,
                       std::size_t ldx, double* y, std::size_t ldy) noexcept {
  for (std::size_t s = 0; s < n_samples; ++s)
    gemv(w, rows, cols, x + s * ldx, y + s * ldy);
}

}  // namespace solsched::ann::kernels::scalar
