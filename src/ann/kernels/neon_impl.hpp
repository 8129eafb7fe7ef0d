// NEON (aarch64, 2-wide f64) bodies for the kernel layer — bit-exact with
// scalar_impl.hpp under the same rules as avx2_impl.hpp: separate mul/add
// (no vfma outside exp), per-output accumulation order preserved. The exp
// lanes here just call the scalar exp_d per element — NEON has no f64
// gather, and the sigmoid kernel is not the aarch64 bottleneck; correctness
// and determinism first.
//
// Only included by kernels.cpp when building for aarch64 with SIMD on.
#pragma once

#include <arm_neon.h>

#include <cstddef>

#include "ann/kernels/exp_kernel.hpp"
#include "ann/kernels/scalar_impl.hpp"

namespace solsched::ann::kernels::neon {

inline void gemv(const double* w, std::size_t rows, std::size_t cols,
                 const double* x, double* y) noexcept {
  std::size_t r = 0;
  for (; r + 2 <= rows; r += 2) {
    const double* p0 = w + (r + 0) * cols;
    const double* p1 = w + (r + 1) * cols;
    float64x2_t acc = vdupq_n_f64(0.0);  // lane j accumulates row r+j.
    std::size_t c = 0;
    for (; c + 2 <= cols; c += 2) {
      const float64x2_t r0 = vld1q_f64(p0 + c);
      const float64x2_t r1 = vld1q_f64(p1 + c);
      const float64x2_t c0 = vzip1q_f64(r0, r1);
      const float64x2_t c1 = vzip2q_f64(r0, r1);
      acc = vaddq_f64(acc, vmulq_f64(c0, vdupq_n_f64(x[c])));
      acc = vaddq_f64(acc, vmulq_f64(c1, vdupq_n_f64(x[c + 1])));
    }
    double lanes[2] = {vgetq_lane_f64(acc, 0), vgetq_lane_f64(acc, 1)};
    for (; c < cols; ++c) {
      lanes[0] += p0[c] * x[c];
      lanes[1] += p1[c] * x[c];
    }
    y[r + 0] = lanes[0];
    y[r + 1] = lanes[1];
  }
  if (r < rows) scalar::gemv(w + r * cols, rows - r, cols, x, y + r);
}

inline void gemv_t_acc(const double* w, std::size_t rows, std::size_t cols,
                       const double* x, double* y) noexcept {
  for (std::size_t r = 0; r < rows; ++r) {
    const float64x2_t xr = vdupq_n_f64(x[r]);
    const double* row = w + r * cols;
    std::size_t c = 0;
    for (; c + 2 <= cols; c += 2)
      vst1q_f64(y + c,
                vaddq_f64(vld1q_f64(y + c), vmulq_f64(vld1q_f64(row + c), xr)));
    for (; c < cols; ++c) y[c] += row[c] * x[r];
  }
}

inline void sigmoid_n(double* v, std::size_t n) noexcept {
  scalar::sigmoid_n(v, n);
}

inline void sigmoid_deriv_mul_n(double* d, const double* s,
                                std::size_t n) noexcept {
  const float64x2_t one = vdupq_n_f64(1.0);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const float64x2_t sv = vld1q_f64(s + i);
    const float64x2_t deriv = vmulq_f64(sv, vsubq_f64(one, sv));
    vst1q_f64(d + i, vmulq_f64(vld1q_f64(d + i), deriv));
  }
  for (; i < n; ++i) d[i] *= s[i] * (1.0 - s[i]);
}

inline void momentum_row_n(double* w, double* v, const double* b, double a,
                           double momentum, double coeff, double decay,
                           std::size_t n) noexcept {
  const float64x2_t av = vdupq_n_f64(a);
  const float64x2_t mv = vdupq_n_f64(momentum);
  const float64x2_t cv = vdupq_n_f64(coeff);
  const float64x2_t dv = vdupq_n_f64(decay);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const float64x2_t wv = vld1q_f64(w + i);
    const float64x2_t grad = vaddq_f64(vmulq_f64(av, vld1q_f64(b + i)),
                                       vmulq_f64(dv, wv));
    const float64x2_t vel =
        vaddq_f64(vmulq_f64(mv, vld1q_f64(v + i)), vmulq_f64(cv, grad));
    vst1q_f64(v + i, vel);
    vst1q_f64(w + i, vaddq_f64(wv, vel));
  }
  if (i < n) scalar::momentum_row_n(w + i, v + i, b + i, a, momentum, coeff,
                                    decay, n - i);
}

inline void momentum_row2_n(double* w, double* v, const double* b1, double a1,
                            const double* b2, double a2, double momentum,
                            double coeff, double decay,
                            std::size_t n) noexcept {
  const float64x2_t a1v = vdupq_n_f64(a1);
  const float64x2_t a2v = vdupq_n_f64(a2);
  const float64x2_t mv = vdupq_n_f64(momentum);
  const float64x2_t cv = vdupq_n_f64(coeff);
  const float64x2_t dv = vdupq_n_f64(decay);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const float64x2_t wv = vld1q_f64(w + i);
    const float64x2_t grad =
        vaddq_f64(vsubq_f64(vmulq_f64(a1v, vld1q_f64(b1 + i)),
                            vmulq_f64(a2v, vld1q_f64(b2 + i))),
                  vmulq_f64(dv, wv));
    const float64x2_t vel =
        vaddq_f64(vmulq_f64(mv, vld1q_f64(v + i)), vmulq_f64(cv, grad));
    vst1q_f64(v + i, vel);
    vst1q_f64(w + i, vaddq_f64(wv, vel));
  }
  if (i < n) scalar::momentum_row2_n(w + i, v + i, b1 + i, a1, b2 + i, a2,
                                     momentum, coeff, decay, n - i);
}

inline void bias_momentum_n(double* b, double* v, const double* d,
                            double momentum, double lr,
                            std::size_t n) noexcept {
  const float64x2_t mv = vdupq_n_f64(momentum);
  const float64x2_t lv = vdupq_n_f64(lr);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const float64x2_t vel = vsubq_f64(vmulq_f64(mv, vld1q_f64(v + i)),
                                      vmulq_f64(lv, vld1q_f64(d + i)));
    vst1q_f64(v + i, vel);
    vst1q_f64(b + i, vaddq_f64(vld1q_f64(b + i), vel));
  }
  if (i < n) scalar::bias_momentum_n(b + i, v + i, d + i, momentum, lr, n - i);
}

inline void bias_momentum2_n(double* b, double* v, const double* d1,
                             const double* d2, double momentum, double lr,
                             std::size_t n) noexcept {
  const float64x2_t mv = vdupq_n_f64(momentum);
  const float64x2_t lv = vdupq_n_f64(lr);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const float64x2_t diff = vsubq_f64(vld1q_f64(d1 + i), vld1q_f64(d2 + i));
    const float64x2_t vel =
        vaddq_f64(vmulq_f64(mv, vld1q_f64(v + i)), vmulq_f64(lv, diff));
    vst1q_f64(v + i, vel);
    vst1q_f64(b + i, vaddq_f64(vld1q_f64(b + i), vel));
  }
  if (i < n)
    scalar::bias_momentum2_n(b + i, v + i, d1 + i, d2 + i, momentum, lr,
                             n - i);
}

inline void add_n(double* v, const double* w, std::size_t n) noexcept {
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2)
    vst1q_f64(v + i, vaddq_f64(vld1q_f64(v + i), vld1q_f64(w + i)));
  for (; i < n; ++i) v[i] += w[i];
}

inline void gemm_batch(const double* w, std::size_t rows, std::size_t cols,
                       const double* x, std::size_t n_samples,
                       std::size_t ldx, double* y, std::size_t ldy) noexcept {
  for (std::size_t s = 0; s < n_samples; ++s)
    gemv(w, rows, cols, x + s * ldx, y + s * ldy);
}

}  // namespace solsched::ann::kernels::neon
