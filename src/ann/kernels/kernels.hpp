// Vectorized kernel layer for the ANN stack (DESIGN.md §14).
//
// Every kernel has one *reference semantics*: the scalar loops in
// scalar_impl.hpp. The SIMD implementations (AVX2 on x86-64, NEON on
// aarch64; selected at configure time by -DSOLSCHED_SIMD=ON/OFF) are
// bit-exact re-orderings of the same operation sequence — multiplies and
// adds stay separate (no fused contraction), per-output accumulation order
// is preserved — so a SOLSCHED_SIMD=ON build and the scalar fallback
// produce identical doubles, not merely close ones. The only transcendental
// (exp, inside sigmoid) is the repo's own deterministic algorithm
// (exp_kernel.hpp), identical per element on both paths.
//
// Dispatch is compile-time: the implementation TU (kernels.cpp) is built
// with the target ISA flags and selects the vector body under
// SOLSCHED_SIMD_AVX2 / SOLSCHED_SIMD_NEON; a runtime CPUID check drops to
// the scalar body on hardware without the ISA, so a binary built with SIMD
// on never faults, it just slows down.
#pragma once

#include <cstddef>
#include <vector>

namespace solsched::ann::kernels {

/// True when the SIMD implementation is compiled in *and* the running CPU
/// supports it (the pair of conditions that actually select vector bodies).
bool simd_active() noexcept;

/// "avx2", "neon" or "scalar" — the implementation simd_active() selects.
const char* arch_name() noexcept;

/// y[r] = Σ_c w[r·cols + c] · x[c], each row accumulated in ascending c
/// order (the reference dot-product order).
void gemv(const double* w, std::size_t rows, std::size_t cols,
          const double* x, double* y) noexcept;

/// y[c] += w[r·cols + c] · x[r] for r ascending (transposed GEMV,
/// accumulate form — elementwise in c, so reordering c is exact).
void gemv_t_acc(const double* w, std::size_t rows, std::size_t cols,
                const double* x, double* y) noexcept;

/// v[i] = 1 / (1 + exp_d(-v[i])).
void sigmoid_n(double* v, std::size_t n) noexcept;

/// d[i] *= s[i] · (1 - s[i])  (backprop through a sigmoid's output).
void sigmoid_deriv_mul_n(double* d, const double* s, std::size_t n) noexcept;

/// b[i] += (v[i] = momentum·v[i] - lr·d[i]).
void bias_momentum_n(double* b, double* v, const double* d, double momentum,
                     double lr, std::size_t n) noexcept;

/// Two-term (CD-1 bias) variant: b[i] += (v[i] = momentum·v[i] +
/// lr·(d1[i] - d2[i])).
void bias_momentum2_n(double* b, double* v, const double* d1,
                      const double* d2, double momentum, double lr,
                      std::size_t n) noexcept;

/// Whole-matrix momentum step, row r with a = a_vec[r]:
///   v[i] = momentum·v[i] + coeff·(a·b[i] + decay·w[i]);  w[i] += v[i].
/// One dispatch + call for the full matrix — the trainers issue millions
/// of these per run and the per-row call overhead was comparable to the
/// row work itself.
void momentum_mat_n(double* w, double* v, const double* a_vec,
                    const double* b, double momentum, double coeff,
                    double decay, std::size_t rows, std::size_t cols) noexcept;

/// Whole-matrix two-term (CD-1) momentum step, row r with a1 = a1_vec[r]
/// and a2 = a2_vec[r]: grad = a1·b1[i] - a2·b2[i] + decay·w[i].
void momentum_mat2_n(double* w, double* v, const double* a1_vec,
                     const double* b1, const double* a2_vec, const double* b2,
                     double momentum, double coeff, double decay,
                     std::size_t rows, std::size_t cols) noexcept;

/// v[i] += w[i].
void add_n(double* v, const double* w, std::size_t n) noexcept;

/// Batched GEMV over a sample panel: for every sample s,
///   y[s·ldy + r] = Σ_c w[r·cols + c] · x[s·ldx + c]  (ascending c).
/// Bit-exact with calling gemv once per sample — the SIMD body assigns one
/// lane per sample, so each output keeps the reference accumulation order.
void gemm_batch(const double* w, std::size_t rows, std::size_t cols,
                const double* x, std::size_t n_samples, std::size_t ldx,
                double* y, std::size_t ldy) noexcept;

/// Vector-width the padded batch layout rounds up to (a constant, so batch
/// layouts are identical across scalar and SIMD builds).
inline constexpr std::size_t kBatchPad = 4;

/// Contiguous row-major sample panel with a padded leading dimension: row s
/// starts at data()[s·ld()], columns beyond cols() are zero. The padded
/// stride keeps every row 32-byte aligned relative to the first and lets
/// the vector bodies run whole lanes over the ragged tail.
class BatchMatrix {
 public:
  BatchMatrix() = default;
  BatchMatrix(std::size_t rows, std::size_t cols)
      : rows_(rows),
        cols_(cols),
        ld_((cols + kBatchPad - 1) / kBatchPad * kBatchPad),
        data_(rows * ld_, 0.0) {}

  std::size_t rows() const noexcept { return rows_; }
  std::size_t cols() const noexcept { return cols_; }
  std::size_t ld() const noexcept { return ld_; }

  double* row(std::size_t r) noexcept { return data_.data() + r * ld_; }
  const double* row(std::size_t r) const noexcept {
    return data_.data() + r * ld_;
  }
  double* data() noexcept { return data_.data(); }
  const double* data() const noexcept { return data_.data(); }

  /// Copies a logical row in (pad columns stay zero).
  void set_row(std::size_t r, const std::vector<double>& v) noexcept {
    double* dst = row(r);
    for (std::size_t c = 0; c < cols_ && c < v.size(); ++c) dst[c] = v[c];
  }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::size_t ld_ = 0;
  std::vector<double> data_;
};

}  // namespace solsched::ann::kernels
