// SIMD parity suite (ctest -L simd).
//
// The kernel layer's contract (kernels.hpp) is that the dispatched
// implementation — AVX2, NEON or scalar, whatever the build selected — is
// *bit-exact* with the scalar reference bodies in scalar_impl.hpp. These
// tests pin that contract on adversarial shapes (empty, single-element,
// every vector-width remainder, and the gemv_t_acc register-variant
// boundary at cols 4..35), on the deterministic exp kernel, on the batched
// forward/inference paths, and on the DP row expansion's 1-vs-N-thread
// bit-identity. In a SOLSCHED_SIMD=OFF build the dispatch resolves to the
// scalar bodies and the suite degenerates to a tail-handling regression
// test — it must pass identically in both builds (scripts/tier1.sh runs
// both, also under ASan/UBSan).
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "../test_helpers.hpp"
#include "ann/dbn.hpp"
#include "ann/kernels/exp_kernel.hpp"
#include "ann/kernels/kernels.hpp"
#include "ann/kernels/scalar_impl.hpp"
#include "ann/mlp.hpp"
#include "nvp/node_sim.hpp"
#include "sched/optimal.hpp"
#include "task/benchmarks.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace solsched::ann::kernels {
namespace {

// Every AVX2 (4-wide) and NEON (2-wide) remainder class, the empty and
// scalar-tail-only cases, and the gemv_t_acc register-variant range
// (cols/4 in 1..8 selects NV; 36+ falls back to the generic loop).
const std::vector<std::size_t> kSizes = {0,  1,  2,  3,  4,  5,  7,  8, 9,
                                         13, 16, 17, 25, 31, 32, 33, 35, 36,
                                         64};

std::vector<double> rand_vec(util::Rng& rng, std::size_t n, double lo = -2.0,
                             double hi = 2.0) {
  std::vector<double> v(n);
  for (double& x : v) x = rng.uniform(lo, hi);
  return v;
}

::testing::AssertionResult bits_equal(const std::vector<double>& a,
                                      const std::vector<double>& b) {
  if (a.size() != b.size())
    return ::testing::AssertionFailure() << "size " << a.size() << " vs "
                                         << b.size();
  if (!a.empty() &&
      std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) != 0) {
    for (std::size_t i = 0; i < a.size(); ++i)
      if (std::memcmp(&a[i], &b[i], sizeof(double)) != 0)
        return ::testing::AssertionFailure()
               << "element " << i << ": " << a[i] << " vs " << b[i];
  }
  return ::testing::AssertionSuccess();
}

TEST(SimdParity, GemvBitExactOnAdversarialShapes) {
  util::Rng rng(7);
  for (std::size_t rows : kSizes)
    for (std::size_t cols : kSizes) {
      const auto w = rand_vec(rng, rows * cols);
      const auto x = rand_vec(rng, cols);
      std::vector<double> y_ref(rows, -1.0), y(rows, -1.0);
      scalar::gemv(w.data(), rows, cols, x.data(), y_ref.data());
      gemv(w.data(), rows, cols, x.data(), y.data());
      EXPECT_TRUE(bits_equal(y_ref, y)) << rows << "x" << cols;
    }
}

TEST(SimdParity, GemvTAccBitExactAcrossRegisterVariants) {
  util::Rng rng(11);
  for (std::size_t rows : kSizes)
    for (std::size_t cols : kSizes) {
      const auto w = rand_vec(rng, rows * cols);
      const auto x = rand_vec(rng, rows);
      auto y_ref = rand_vec(rng, cols);  // accumulate form: start nonzero.
      auto y = y_ref;
      scalar::gemv_t_acc(w.data(), rows, cols, x.data(), y_ref.data());
      gemv_t_acc(w.data(), rows, cols, x.data(), y.data());
      EXPECT_TRUE(bits_equal(y_ref, y)) << rows << "x" << cols;
    }
}

TEST(SimdParity, SigmoidKernelsBitExact) {
  util::Rng rng(13);
  for (std::size_t n : kSizes) {
    auto v_ref = rand_vec(rng, n, -30.0, 30.0);
    auto v = v_ref;
    scalar::sigmoid_n(v_ref.data(), n);
    sigmoid_n(v.data(), n);
    EXPECT_TRUE(bits_equal(v_ref, v)) << "sigmoid n=" << n;

    auto d_ref = rand_vec(rng, n);
    auto d = d_ref;
    scalar::sigmoid_deriv_mul_n(d_ref.data(), v_ref.data(), n);
    sigmoid_deriv_mul_n(d.data(), v.data(), n);
    EXPECT_TRUE(bits_equal(d_ref, d)) << "deriv n=" << n;
  }
}

TEST(SimdParity, MomentumKernelsBitExact) {
  util::Rng rng(17);
  const double momentum = 0.7, lr = 0.1;
  for (std::size_t n : kSizes) {
    {
      auto b_ref = rand_vec(rng, n), v_ref = rand_vec(rng, n);
      const auto d = rand_vec(rng, n);
      auto b = b_ref, v = v_ref;
      scalar::bias_momentum_n(b_ref.data(), v_ref.data(), d.data(), momentum,
                              lr, n);
      bias_momentum_n(b.data(), v.data(), d.data(), momentum, lr, n);
      EXPECT_TRUE(bits_equal(b_ref, b)) << "bias n=" << n;
      EXPECT_TRUE(bits_equal(v_ref, v)) << "bias v n=" << n;
    }
    {
      auto b_ref = rand_vec(rng, n), v_ref = rand_vec(rng, n);
      const auto d1 = rand_vec(rng, n), d2 = rand_vec(rng, n);
      auto b = b_ref, v = v_ref;
      scalar::bias_momentum2_n(b_ref.data(), v_ref.data(), d1.data(),
                               d2.data(), momentum, lr, n);
      bias_momentum2_n(b.data(), v.data(), d1.data(), d2.data(), momentum, lr,
                       n);
      EXPECT_TRUE(bits_equal(b_ref, b)) << "bias2 n=" << n;
      EXPECT_TRUE(bits_equal(v_ref, v)) << "bias2 v n=" << n;
    }
  }
}

// rows = 1 runs the vector row body alone on every tail class in kSizes.
TEST(SimdParity, WholeMatrixAndElementwiseKernelsBitExact) {
  util::Rng rng(19);
  for (std::size_t rows : {std::size_t{1}, std::size_t{3}, std::size_t{13},
                           std::size_t{24}})
    for (std::size_t cols : kSizes) {
      const std::size_t n = rows * cols;
      const auto a1 = rand_vec(rng, rows), a2 = rand_vec(rng, rows);
      const auto b1 = rand_vec(rng, cols), b2 = rand_vec(rng, cols);
      {
        auto w_ref = rand_vec(rng, n), v_ref = rand_vec(rng, n);
        auto w = w_ref, v = v_ref;
        // momentum_mat_n has no separate scalar body; its reference is
        // scalar momentum_row_n per row.
        for (std::size_t r = 0; r < rows; ++r)
          scalar::momentum_row_n(w_ref.data() + r * cols,
                                 v_ref.data() + r * cols, b1.data(), a1[r],
                                 0.7, 0.2, -1e-5, cols);
        momentum_mat_n(w.data(), v.data(), a1.data(), b1.data(), 0.7, 0.2,
                       -1e-5, rows, cols);
        EXPECT_TRUE(bits_equal(w_ref, w)) << "mat " << rows << "x" << cols;
        EXPECT_TRUE(bits_equal(v_ref, v)) << "mat v " << rows << "x" << cols;
      }
      {
        auto w_ref = rand_vec(rng, n), v_ref = rand_vec(rng, n);
        auto w = w_ref, v = v_ref;
        for (std::size_t r = 0; r < rows; ++r)
          scalar::momentum_row2_n(w_ref.data() + r * cols,
                                  v_ref.data() + r * cols, b1.data(), a1[r],
                                  b2.data(), a2[r], 0.5, 0.1, -1e-4, cols);
        momentum_mat2_n(w.data(), v.data(), a1.data(), b1.data(), a2.data(),
                        b2.data(), 0.5, 0.1, -1e-4, rows, cols);
        EXPECT_TRUE(bits_equal(w_ref, w)) << "mat2 " << rows << "x" << cols;
        EXPECT_TRUE(bits_equal(v_ref, v)) << "mat2 v " << rows << "x" << cols;
      }
    }
  for (std::size_t n : kSizes) {
    auto w_ref = rand_vec(rng, n);
    const auto o = rand_vec(rng, n);
    auto w = w_ref;
    scalar::add_n(w_ref.data(), o.data(), n);
    add_n(w.data(), o.data(), n);
    EXPECT_TRUE(bits_equal(w_ref, w)) << "add n=" << n;
  }
}

TEST(SimdParity, GemmBatchBitExactWithPerSampleGemv) {
  util::Rng rng(23);
  for (std::size_t rows : {std::size_t{1}, std::size_t{13}, std::size_t{24}})
    for (std::size_t cols : {std::size_t{1}, std::size_t{5}, std::size_t{12},
                             std::size_t{25}, std::size_t{33}})
      for (std::size_t b : {std::size_t{1}, std::size_t{2}, std::size_t{3},
                            std::size_t{4}, std::size_t{5}, std::size_t{9}}) {
        const auto w = rand_vec(rng, rows * cols);
        BatchMatrix x(b, cols), y(b, rows), y_ref(b, rows);
        for (std::size_t s = 0; s < b; ++s)
          x.set_row(s, rand_vec(rng, cols));
        for (std::size_t s = 0; s < b; ++s)
          scalar::gemv(w.data(), rows, cols, x.row(s), y_ref.row(s));
        gemm_batch(w.data(), rows, cols, x.data(), b, x.ld(), y.data(),
                   y.ld());
        for (std::size_t s = 0; s < b; ++s)
          for (std::size_t r = 0; r < rows; ++r)
            EXPECT_EQ(std::memcmp(&y.row(s)[r], &y_ref.row(s)[r],
                                  sizeof(double)),
                      0)
                << rows << "x" << cols << " b=" << b << " s=" << s
                << " r=" << r;
      }
}

TEST(SimdParity, ExpKernelMatchesLibmAndHandlesEdges) {
  // Main range: within a couple of ulp of libm (exp_d is its own correctly
  // specified algorithm, not a libm clone, so exact bits may differ from
  // glibc's — but never by more than rounding).
  util::Rng rng(29);
  for (int i = 0; i < 2000; ++i) {
    const double x = rng.uniform(-500.0, 500.0);
    const double got = exp_d(x);
    const double want = std::exp(x);
    EXPECT_NEAR(got, want, std::abs(want) * 4e-16) << "x=" << x;
  }
  EXPECT_EQ(exp_d(0.0), 1.0);
  EXPECT_EQ(exp_d(-std::numeric_limits<double>::infinity()), 0.0);
  EXPECT_TRUE(std::isinf(exp_d(std::numeric_limits<double>::infinity())));
  EXPECT_TRUE(std::isnan(exp_d(std::numeric_limits<double>::quiet_NaN())));
  EXPECT_EQ(exp_d(-800.0), 0.0);                 // Hard underflow.
  EXPECT_TRUE(std::isinf(exp_d(800.0)));         // Hard overflow.
  EXPECT_GT(exp_d(-708.0), 0.0);                 // Subnormal range.
  // Determinism: repeated evaluation is identical (no hidden state).
  EXPECT_EQ(exp_d(1.2345), exp_d(1.2345));
}

TEST(SimdParity, MlpForwardBatchBitExactWithForward) {
  util::Rng rng(31);
  Mlp net({25, 24, 12, 13}, 42);
  const std::size_t b = 7;
  BatchMatrix x(b, 25);
  std::vector<Vector> singles(b);
  for (std::size_t s = 0; s < b; ++s) {
    singles[s] = rand_vec(rng, 25, 0.0, 1.0);
    x.set_row(s, singles[s]);
  }
  const BatchMatrix y = net.forward_batch(x);
  for (std::size_t s = 0; s < b; ++s) {
    const Vector ref = net.forward(singles[s]);
    for (std::size_t i = 0; i < ref.size(); ++i)
      EXPECT_EQ(std::memcmp(&y.row(s)[i], &ref[i], sizeof(double)), 0)
          << "s=" << s << " i=" << i;
  }
}

TEST(SimdParity, DbnPredictBatchBitExactWithPredict) {
  util::Rng rng(37);
  DbnConfig cfg;
  cfg.hidden_sizes = {10, 6};
  Dbn dbn(8, 5, cfg);
  std::vector<Vector> xs;
  for (int s = 0; s < 9; ++s) xs.push_back(rand_vec(rng, 8, 0.0, 1.0));
  const std::vector<Vector> batch = dbn.predict_batch(xs);
  ASSERT_EQ(batch.size(), xs.size());
  for (std::size_t s = 0; s < xs.size(); ++s) {
    const Vector ref = dbn.predict(xs[s]);
    ASSERT_EQ(batch[s].size(), ref.size());
    for (std::size_t i = 0; i < ref.size(); ++i)
      EXPECT_EQ(std::memcmp(&batch[s][i], &ref[i], sizeof(double)), 0)
          << "s=" << s << " i=" << i;
  }
}

}  // namespace
}  // namespace solsched::ann::kernels

namespace solsched::sched {
namespace {

// The DP's two-phase row expansion (optimal.cpp): option sets derive on the
// pool, relaxation stays serial — the plan must be bit-identical at every
// thread count, with and without the option cache.
TEST(SimdParity, DpRowExpansionBitIdenticalAcrossThreadCounts) {
  const auto grid = test::small_grid();
  const auto graph = task::wam_benchmark();
  const auto node = test::small_node(grid);
  const auto gen = test::scaled_generator(grid, 31);
  const auto trace = gen.generate_days(2, test::small_grid());

  for (bool cache : {true, false}) {
    OptimalConfig cfg;
    cfg.use_option_cache = cache;

    util::ThreadPool::set_global_threads(1);
    OptimalScheduler serial(cfg);
    nvp::simulate(graph, trace, serial, node);
    util::ThreadPool::set_global_threads(4);
    OptimalScheduler parallel(cfg);
    nvp::simulate(graph, trace, parallel, node);
    util::ThreadPool::set_global_threads(
        util::ThreadPool::thread_count_from_env());

    EXPECT_EQ(serial.dp_evaluations(), parallel.dp_evaluations());
    EXPECT_EQ(serial.planned_total_misses(), parallel.planned_total_misses());
    ASSERT_EQ(serial.plan().size(), parallel.plan().size());
    for (std::size_t p = 0; p < serial.plan().size(); ++p) {
      const PlannedPeriod& a = serial.plan()[p];
      const PlannedPeriod& b = parallel.plan()[p];
      EXPECT_EQ(a.cap_index, b.cap_index) << "period " << p;
      EXPECT_EQ(a.te, b.te) << "period " << p;
      EXPECT_EQ(std::memcmp(&a.alpha, &b.alpha, sizeof(double)), 0)
          << "period " << p;
      EXPECT_EQ(a.planned_misses, b.planned_misses) << "period " << p;
      EXPECT_EQ(std::memcmp(&a.planned_consumed_j, &b.planned_consumed_j,
                            sizeof(double)),
                0)
          << "period " << p;
      EXPECT_EQ(std::memcmp(&a.planned_v0, &b.planned_v0, sizeof(double)), 0)
          << "period " << p;
    }
  }
}

}  // namespace
}  // namespace solsched::sched
