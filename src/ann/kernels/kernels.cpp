// Dispatch TU for the kernel layer.
//
// Built with the target ISA flags (-mavx2 -mfma on x86-64) when
// SOLSCHED_SIMD=ON; CMake defines SOLSCHED_SIMD_AVX2 / SOLSCHED_SIMD_NEON
// accordingly. Each public kernel branches once on a namespace-scope
// `static const bool` initialised from a runtime CPU check, so a SIMD build
// degrades to the scalar reference on hardware without the ISA instead of
// faulting. Zero-initialisation of the flag (false) before dynamic init
// means even static-init-order calls land safely on the scalar path.
#include "ann/kernels/kernels.hpp"

#include <vector>

#include "ann/kernels/scalar_impl.hpp"

#if defined(SOLSCHED_SIMD_AVX2)
#include "ann/kernels/avx2_impl.hpp"
#elif defined(SOLSCHED_SIMD_NEON)
#include "ann/kernels/neon_impl.hpp"
#endif

namespace solsched::ann::kernels {

namespace {

#if defined(SOLSCHED_SIMD_AVX2)
const bool kUseSimd = __builtin_cpu_supports("avx2") != 0 &&
                      __builtin_cpu_supports("fma") != 0;
#elif defined(SOLSCHED_SIMD_NEON)
// Baseline aarch64 always has Advanced SIMD with f64.
const bool kUseSimd = true;
#else
const bool kUseSimd = false;
#endif

}  // namespace

bool simd_active() noexcept { return kUseSimd; }

const char* arch_name() noexcept {
#if defined(SOLSCHED_SIMD_AVX2)
  if (kUseSimd) return "avx2";
#elif defined(SOLSCHED_SIMD_NEON)
  if (kUseSimd) return "neon";
#endif
  return "scalar";
}

#if defined(SOLSCHED_SIMD_AVX2)
namespace simd = avx2;
#elif defined(SOLSCHED_SIMD_NEON)
namespace simd = neon;
#else
namespace simd = scalar;
#endif

void gemv(const double* w, std::size_t rows, std::size_t cols,
          const double* x, double* y) noexcept {
  if (kUseSimd)
    simd::gemv(w, rows, cols, x, y);
  else
    scalar::gemv(w, rows, cols, x, y);
}

void gemv_t_acc(const double* w, std::size_t rows, std::size_t cols,
                const double* x, double* y) noexcept {
  if (kUseSimd)
    simd::gemv_t_acc(w, rows, cols, x, y);
  else
    scalar::gemv_t_acc(w, rows, cols, x, y);
}

void sigmoid_n(double* v, std::size_t n) noexcept {
  if (kUseSimd)
    simd::sigmoid_n(v, n);
  else
    scalar::sigmoid_n(v, n);
}

void sigmoid_deriv_mul_n(double* d, const double* s, std::size_t n) noexcept {
  if (kUseSimd)
    simd::sigmoid_deriv_mul_n(d, s, n);
  else
    scalar::sigmoid_deriv_mul_n(d, s, n);
}

void bias_momentum_n(double* b, double* v, const double* d, double momentum,
                     double lr, std::size_t n) noexcept {
  if (kUseSimd)
    simd::bias_momentum_n(b, v, d, momentum, lr, n);
  else
    scalar::bias_momentum_n(b, v, d, momentum, lr, n);
}

void bias_momentum2_n(double* b, double* v, const double* d1,
                      const double* d2, double momentum, double lr,
                      std::size_t n) noexcept {
  if (kUseSimd)
    simd::bias_momentum2_n(b, v, d1, d2, momentum, lr, n);
  else
    scalar::bias_momentum2_n(b, v, d1, d2, momentum, lr, n);
}

void momentum_mat_n(double* w, double* v, const double* a_vec,
                    const double* b, double momentum, double coeff,
                    double decay, std::size_t rows,
                    std::size_t cols) noexcept {
  if (kUseSimd) {
    for (std::size_t r = 0; r < rows; ++r)
      simd::momentum_row_n(w + r * cols, v + r * cols, b, a_vec[r], momentum,
                           coeff, decay, cols);
  } else {
    for (std::size_t r = 0; r < rows; ++r)
      scalar::momentum_row_n(w + r * cols, v + r * cols, b, a_vec[r],
                             momentum, coeff, decay, cols);
  }
}

void momentum_mat2_n(double* w, double* v, const double* a1_vec,
                     const double* b1, const double* a2_vec, const double* b2,
                     double momentum, double coeff, double decay,
                     std::size_t rows, std::size_t cols) noexcept {
  if (kUseSimd) {
    for (std::size_t r = 0; r < rows; ++r)
      simd::momentum_row2_n(w + r * cols, v + r * cols, b1, a1_vec[r], b2,
                            a2_vec[r], momentum, coeff, decay, cols);
  } else {
    for (std::size_t r = 0; r < rows; ++r)
      scalar::momentum_row2_n(w + r * cols, v + r * cols, b1, a1_vec[r], b2,
                              a2_vec[r], momentum, coeff, decay, cols);
  }
}

void add_n(double* v, const double* w, std::size_t n) noexcept {
  if (kUseSimd)
    simd::add_n(v, w, n);
  else
    scalar::add_n(v, w, n);
}

void gemm_batch(const double* w, std::size_t rows, std::size_t cols,
                const double* x, std::size_t n_samples, std::size_t ldx,
                double* y, std::size_t ldy) noexcept {
#if defined(SOLSCHED_SIMD_AVX2)
  if (kUseSimd) {
    // Thread-local pack panel: gemm_batch is called from parallel_for
    // workers during batched inference.
    thread_local std::vector<double> pack;
    if (pack.size() < cols * 4) pack.resize(cols * 4);
    avx2::gemm_batch(w, rows, cols, x, n_samples, ldx, y, ldy, pack.data());
    return;
  }
#elif defined(SOLSCHED_SIMD_NEON)
  if (kUseSimd) {
    neon::gemm_batch(w, rows, cols, x, n_samples, ldx, y, ldy);
    return;
  }
#endif
  scalar::gemm_batch(w, rows, cols, x, n_samples, ldx, y, ldy);
}

}  // namespace solsched::ann::kernels
