// AVX2 bodies for the kernel layer — bit-exact with scalar_impl.hpp.
//
// Two rules keep the vector code on the scalar contract:
//   1. No contraction outside exp: every a·b + c is an explicit
//      _mm256_mul_pd followed by _mm256_add_pd, matching the two rounded
//      operations the ISO-mode scalar loops perform. Only exp_pd uses
//      _mm256_fmadd_pd, mirroring the std::fma calls in exp_main.
//   2. Per-output accumulation order is preserved. gemv/gemm assign one
//      *output* (row, or sample) per lane and walk the reduction dimension
//      serially, so each output sees the exact scalar summation order; the
//      elementwise kernels have no cross-lane dependencies at all.
//
// Only included by kernels.cpp when that TU is compiled with -mavx2 -mfma.
#pragma once

#include <immintrin.h>

#include <cstddef>
#include <cstdint>

#include "ann/kernels/exp_kernel.hpp"
#include "ann/kernels/scalar_impl.hpp"

namespace solsched::ann::kernels::avx2 {

/// Lane-wise exp_main (exp_kernel.hpp) for |x| <= kExpMainBound. Same
/// operation sequence as the scalar version; table values come in through
/// two gathers.
inline __m256d exp_main_pd(__m256d x) noexcept {
  const __m256d inv_ln2n = _mm256_set1_pd(kExpInvLn2N);
  const __m256d shift = _mm256_set1_pd(kExpShift);
  const __m256d z = _mm256_mul_pd(x, inv_ln2n);
  __m256d kd = _mm256_add_pd(z, shift);
  const __m256i ki =
      _mm256_sub_epi64(_mm256_castpd_si256(kd), _mm256_set1_epi64x(kExpShiftBits));
  kd = _mm256_sub_pd(kd, shift);
  const __m256d r = _mm256_fmadd_pd(
      _mm256_sub_pd(_mm256_setzero_pd(), kd), _mm256_set1_pd(kExpLn2LoN),
      _mm256_fmadd_pd(_mm256_sub_pd(_mm256_setzero_pd(), kd),
                      _mm256_set1_pd(kExpLn2HiN), x));
  const __m256i idx = _mm256_and_si256(ki, _mm256_set1_epi64x(127));
  // (ki - idx) << 45 == floor(ki/128) << 52: the integer exponent bits.
  const __m256i expo_bits = _mm256_slli_epi64(_mm256_sub_epi64(ki, idx), 45);
  const __m256d hi = _mm256_i64gather_pd(kExpHi, idx, 8);
  const __m256d tail = _mm256_i64gather_pd(kExpTail, idx, 8);
  const __m256d s = _mm256_castsi256_pd(
      _mm256_add_epi64(_mm256_castpd_si256(hi), expo_bits));
  const __m256d r2 = _mm256_mul_pd(r, r);
  __m256d p = _mm256_fmadd_pd(r, _mm256_set1_pd(kExpC5), _mm256_set1_pd(kExpC4));
  p = _mm256_fmadd_pd(r, p, _mm256_set1_pd(kExpC3));
  p = _mm256_fmadd_pd(r, p, _mm256_set1_pd(kExpC2));
  p = _mm256_fmadd_pd(r2, p, r);
  return _mm256_fmadd_pd(s, _mm256_add_pd(tail, p), s);
}

/// Full-range lane-wise exp_d: vector main path, scalar fix-up for lanes
/// outside |x| <= kExpMainBound (the same predicate exp_d uses, so every
/// input takes the same path in both builds).
inline __m256d exp_pd(__m256d x) noexcept {
  const __m256d ax = _mm256_andnot_pd(_mm256_set1_pd(-0.0), x);
  // True for |x| > bound and for NaN (unordered compare).
  const __m256d odd =
      _mm256_cmp_pd(ax, _mm256_set1_pd(kExpMainBound), _CMP_NLE_UQ);
  __m256d res = exp_main_pd(x);
  const int mask = _mm256_movemask_pd(odd);
  if (mask != 0) [[unlikely]] {
    alignas(32) double xs[4];
    alignas(32) double rs[4];
    _mm256_store_pd(xs, x);
    _mm256_store_pd(rs, res);
    for (int lane = 0; lane < 4; ++lane)
      if (mask & (1 << lane)) rs[lane] = exp_d(xs[lane]);
    res = _mm256_load_pd(rs);
  }
  return res;
}

inline void sigmoid_n(double* v, std::size_t n) noexcept {
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d neg0 = _mm256_set1_pd(-0.0);
  std::size_t i = 0;
  // Two independent exp chains per iteration: the gathers and divides of
  // the second vector overlap the first's latency. Lanes are independent,
  // so the pairing changes nothing numerically.
  for (; i + 8 <= n; i += 8) {
    const __m256d x0 = _mm256_loadu_pd(v + i);
    const __m256d x1 = _mm256_loadu_pd(v + i + 4);
    const __m256d e0 = exp_pd(_mm256_xor_pd(x0, neg0));  // exp(-x)
    const __m256d e1 = exp_pd(_mm256_xor_pd(x1, neg0));
    _mm256_storeu_pd(v + i, _mm256_div_pd(one, _mm256_add_pd(one, e0)));
    _mm256_storeu_pd(v + i + 4, _mm256_div_pd(one, _mm256_add_pd(one, e1)));
  }
  for (; i + 4 <= n; i += 4) {
    const __m256d x = _mm256_loadu_pd(v + i);
    const __m256d e = exp_pd(_mm256_xor_pd(x, neg0));  // exp(-x)
    _mm256_storeu_pd(v + i, _mm256_div_pd(one, _mm256_add_pd(one, e)));
  }
  for (; i < n; ++i) v[i] = sigmoid_d(v[i]);
}

inline void gemv(const double* w, std::size_t rows, std::size_t cols,
                 const double* x, double* y) noexcept {
  std::size_t r = 0;
  for (; r + 4 <= rows; r += 4) {
    const double* p0 = w + (r + 0) * cols;
    const double* p1 = w + (r + 1) * cols;
    const double* p2 = w + (r + 2) * cols;
    const double* p3 = w + (r + 3) * cols;
    __m256d acc = _mm256_setzero_pd();  // lane j accumulates row r+j.
    std::size_t c = 0;
    for (; c + 2 <= cols; c += 2) {
      // Column pair c, c+1 of the four rows via two half-register loads and
      // one unpack each — two shuffle-port ops per 8 elements instead of the
      // eight a 4x4 transpose needs; x comes in as broadcast *loads*, which
      // stay off the shuffle port entirely.
      const __m256d a = _mm256_loadu2_m128d(p2 + c, p0 + c);
      const __m256d b = _mm256_loadu2_m128d(p3 + c, p1 + c);
      const __m256d c0 = _mm256_unpacklo_pd(a, b);
      const __m256d c1 = _mm256_unpackhi_pd(a, b);
      // Ascending column order per lane — the scalar dot order.
      acc = _mm256_add_pd(acc, _mm256_mul_pd(c0, _mm256_broadcast_sd(x + c)));
      acc = _mm256_add_pd(acc,
                          _mm256_mul_pd(c1, _mm256_broadcast_sd(x + c + 1)));
    }
    alignas(32) double lanes[4];
    _mm256_store_pd(lanes, acc);
    for (; c < cols; ++c) {
      lanes[0] += p0[c] * x[c];
      lanes[1] += p1[c] * x[c];
      lanes[2] += p2[c] * x[c];
      lanes[3] += p3[c] * x[c];
    }
    y[r + 0] = lanes[0];
    y[r + 1] = lanes[1];
    y[r + 2] = lanes[2];
    y[r + 3] = lanes[3];
  }
  if (r < rows) scalar::gemv(w + r * cols, rows - r, cols, x, y + r);
}

/// Register-resident body for cols/4 == NV vector blocks: the y accumulators
/// live in ymm registers across the whole row walk, so each row costs only
/// its w loads plus the multiply/add pair — no y store traffic per row.
/// Each y[c] still accumulates in ascending r order (bit-exact); tail
/// columns (cols % 4) are finished by a second scalar pass, which is also
/// ascending r per output.
template <int NV>
inline void gemv_t_acc_reg(const double* w, std::size_t rows,
                           std::size_t cols, const double* x,
                           double* y) noexcept {
  __m256d acc[NV];
  for (int k = 0; k < NV; ++k) acc[k] = _mm256_loadu_pd(y + 4 * k);
  for (std::size_t r = 0; r < rows; ++r) {
    const __m256d xr = _mm256_broadcast_sd(x + r);
    const double* row = w + r * cols;
    for (int k = 0; k < NV; ++k)
      acc[k] = _mm256_add_pd(
          acc[k], _mm256_mul_pd(_mm256_loadu_pd(row + 4 * k), xr));
  }
  for (int k = 0; k < NV; ++k) _mm256_storeu_pd(y + 4 * k, acc[k]);
  for (std::size_t r = 0; r < rows; ++r) {
    const double* row = w + r * cols;
    for (std::size_t c = 4 * NV; c < cols; ++c) y[c] += row[c] * x[r];
  }
}

inline void gemv_t_acc(const double* w, std::size_t rows, std::size_t cols,
                       const double* x, double* y) noexcept {
  switch (cols / 4) {
    case 1: gemv_t_acc_reg<1>(w, rows, cols, x, y); return;
    case 2: gemv_t_acc_reg<2>(w, rows, cols, x, y); return;
    case 3: gemv_t_acc_reg<3>(w, rows, cols, x, y); return;
    case 4: gemv_t_acc_reg<4>(w, rows, cols, x, y); return;
    case 5: gemv_t_acc_reg<5>(w, rows, cols, x, y); return;
    case 6: gemv_t_acc_reg<6>(w, rows, cols, x, y); return;
    case 7: gemv_t_acc_reg<7>(w, rows, cols, x, y); return;
    case 8: gemv_t_acc_reg<8>(w, rows, cols, x, y); return;
    default: break;
  }
  for (std::size_t r = 0; r < rows; ++r) {
    const __m256d xr = _mm256_set1_pd(x[r]);
    const double* row = w + r * cols;
    std::size_t c = 0;
    for (; c + 4 <= cols; c += 4) {
      const __m256d yv = _mm256_loadu_pd(y + c);
      const __m256d wv = _mm256_loadu_pd(row + c);
      _mm256_storeu_pd(y + c, _mm256_add_pd(yv, _mm256_mul_pd(wv, xr)));
    }
    for (; c < cols; ++c) y[c] += row[c] * x[r];
  }
}

inline void sigmoid_deriv_mul_n(double* d, const double* s,
                                std::size_t n) noexcept {
  const __m256d one = _mm256_set1_pd(1.0);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d sv = _mm256_loadu_pd(s + i);
    const __m256d dv = _mm256_loadu_pd(d + i);
    const __m256d deriv = _mm256_mul_pd(sv, _mm256_sub_pd(one, sv));
    _mm256_storeu_pd(d + i, _mm256_mul_pd(dv, deriv));
  }
  for (; i < n; ++i) d[i] *= s[i] * (1.0 - s[i]);
}

inline void momentum_row_n(double* w, double* v, const double* b, double a,
                           double momentum, double coeff, double decay,
                           std::size_t n) noexcept {
  const __m256d av = _mm256_set1_pd(a);
  const __m256d mv = _mm256_set1_pd(momentum);
  const __m256d cv = _mm256_set1_pd(coeff);
  const __m256d dv = _mm256_set1_pd(decay);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d wv = _mm256_loadu_pd(w + i);
    const __m256d bv = _mm256_loadu_pd(b + i);
    const __m256d vv = _mm256_loadu_pd(v + i);
    const __m256d grad =
        _mm256_add_pd(_mm256_mul_pd(av, bv), _mm256_mul_pd(dv, wv));
    const __m256d vel =
        _mm256_add_pd(_mm256_mul_pd(mv, vv), _mm256_mul_pd(cv, grad));
    _mm256_storeu_pd(v + i, vel);
    _mm256_storeu_pd(w + i, _mm256_add_pd(wv, vel));
  }
  if (i < n) scalar::momentum_row_n(w + i, v + i, b + i, a, momentum, coeff,
                                    decay, n - i);
}

inline void momentum_row2_n(double* w, double* v, const double* b1, double a1,
                            const double* b2, double a2, double momentum,
                            double coeff, double decay,
                            std::size_t n) noexcept {
  const __m256d a1v = _mm256_set1_pd(a1);
  const __m256d a2v = _mm256_set1_pd(a2);
  const __m256d mv = _mm256_set1_pd(momentum);
  const __m256d cv = _mm256_set1_pd(coeff);
  const __m256d dv = _mm256_set1_pd(decay);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d wv = _mm256_loadu_pd(w + i);
    const __m256d vv = _mm256_loadu_pd(v + i);
    // grad = a1·b1 - a2·b2 + decay·w with the scalar's left-to-right adds.
    const __m256d grad = _mm256_add_pd(
        _mm256_sub_pd(_mm256_mul_pd(a1v, _mm256_loadu_pd(b1 + i)),
                      _mm256_mul_pd(a2v, _mm256_loadu_pd(b2 + i))),
        _mm256_mul_pd(dv, wv));
    const __m256d vel =
        _mm256_add_pd(_mm256_mul_pd(mv, vv), _mm256_mul_pd(cv, grad));
    _mm256_storeu_pd(v + i, vel);
    _mm256_storeu_pd(w + i, _mm256_add_pd(wv, vel));
  }
  if (i < n) scalar::momentum_row2_n(w + i, v + i, b1 + i, a1, b2 + i, a2,
                                     momentum, coeff, decay, n - i);
}

inline void bias_momentum_n(double* b, double* v, const double* d,
                            double momentum, double lr,
                            std::size_t n) noexcept {
  const __m256d mv = _mm256_set1_pd(momentum);
  const __m256d lv = _mm256_set1_pd(lr);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d vel =
        _mm256_sub_pd(_mm256_mul_pd(mv, _mm256_loadu_pd(v + i)),
                      _mm256_mul_pd(lv, _mm256_loadu_pd(d + i)));
    _mm256_storeu_pd(v + i, vel);
    _mm256_storeu_pd(b + i, _mm256_add_pd(_mm256_loadu_pd(b + i), vel));
  }
  if (i < n) scalar::bias_momentum_n(b + i, v + i, d + i, momentum, lr, n - i);
}

inline void bias_momentum2_n(double* b, double* v, const double* d1,
                             const double* d2, double momentum, double lr,
                             std::size_t n) noexcept {
  const __m256d mv = _mm256_set1_pd(momentum);
  const __m256d lv = _mm256_set1_pd(lr);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d diff =
        _mm256_sub_pd(_mm256_loadu_pd(d1 + i), _mm256_loadu_pd(d2 + i));
    const __m256d vel =
        _mm256_add_pd(_mm256_mul_pd(mv, _mm256_loadu_pd(v + i)),
                      _mm256_mul_pd(lv, diff));
    _mm256_storeu_pd(v + i, vel);
    _mm256_storeu_pd(b + i, _mm256_add_pd(_mm256_loadu_pd(b + i), vel));
  }
  if (i < n)
    scalar::bias_momentum2_n(b + i, v + i, d1 + i, d2 + i, momentum, lr,
                             n - i);
}

inline void add_n(double* v, const double* w, std::size_t n) noexcept {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4)
    _mm256_storeu_pd(
        v + i, _mm256_add_pd(_mm256_loadu_pd(v + i), _mm256_loadu_pd(w + i)));
  for (; i < n; ++i) v[i] += w[i];
}

/// Lane-per-sample batched GEMV. A 4-sample panel of x is packed into
/// column-interleaved form once (pure data movement), then every weight row
/// walks it with broadcast multiplies — each sample's dot product runs in
/// its own lane in ascending column order, bit-exact with per-sample gemv.
inline void gemm_batch(const double* w, std::size_t rows, std::size_t cols,
                       const double* x, std::size_t n_samples,
                       std::size_t ldx, double* y, std::size_t ldy,
                       double* pack /* cols*4 scratch */) noexcept {
  std::size_t s = 0;
  for (; s + 4 <= n_samples; s += 4) {
    const double* x0 = x + (s + 0) * ldx;
    const double* x1 = x + (s + 1) * ldx;
    const double* x2 = x + (s + 2) * ldx;
    const double* x3 = x + (s + 3) * ldx;
    std::size_t c = 0;
    for (; c + 2 <= cols; c += 2) {
      const __m256d a = _mm256_loadu2_m128d(x2 + c, x0 + c);
      const __m256d b = _mm256_loadu2_m128d(x3 + c, x1 + c);
      _mm256_storeu_pd(pack + 4 * (c + 0), _mm256_unpacklo_pd(a, b));
      _mm256_storeu_pd(pack + 4 * (c + 1), _mm256_unpackhi_pd(a, b));
    }
    for (; c < cols; ++c) {
      pack[4 * c + 0] = x0[c];
      pack[4 * c + 1] = x1[c];
      pack[4 * c + 2] = x2[c];
      pack[4 * c + 3] = x3[c];
    }
    for (std::size_t r = 0; r < rows; ++r) {
      const double* wr = w + r * cols;
      __m256d acc = _mm256_setzero_pd();  // lane j = sample s+j.
      for (std::size_t cc = 0; cc < cols; ++cc)
        acc = _mm256_add_pd(
            acc, _mm256_mul_pd(_mm256_set1_pd(wr[cc]),
                               _mm256_loadu_pd(pack + 4 * cc)));
      alignas(32) double lanes[4];
      _mm256_store_pd(lanes, acc);
      y[(s + 0) * ldy + r] = lanes[0];
      y[(s + 1) * ldy + r] = lanes[1];
      y[(s + 2) * ldy + r] = lanes[2];
      y[(s + 3) * ldy + r] = lanes[3];
    }
  }
  for (; s < n_samples; ++s) gemv(w, rows, cols, x + s * ldx, y + s * ldy);
}

}  // namespace solsched::ann::kernels::avx2
