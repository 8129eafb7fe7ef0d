// Microbenchmark of the vectorized kernel layer (DESIGN.md §14): GEMV,
// transposed GEMV, batched GEMM, sigmoid and the fused momentum updates,
// timed on the DBN's real layer shapes (24x25 / 12x24 / 13x12) plus ragged
// and adversarial shapes that exercise the vector-width tails. Each timing
// is best-of-reps over a fixed iteration count; results go to stdout and to
// BENCH_ann.json. The committed copy at the repo root is the kernel
// roofline record; nothing gates on it (perfbench is the benchmark).
//
// The per-shape `mflops` column is the useful-arithmetic rate (multiply and
// add counted separately, matching the kernels' no-contraction contract),
// so it is directly comparable against the machine's non-FMA vector peak.
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "ann/kernels/kernels.hpp"
#include "bench_common.hpp"
#include "util/rng.hpp"

using namespace solsched;
using Clock = std::chrono::steady_clock;

namespace {

constexpr int kReps = 5;

struct Shape {
  std::size_t rows;
  std::size_t cols;
};

// DBN layers first, then tails that stress the non-multiple-of-width edge
// handling (rows % 4, cols % 4 in every combination) and one larger panel.
const std::vector<Shape> kShapes = {
    {24, 25}, {12, 24}, {13, 12}, {1, 1},  {3, 5},
    {5, 3},   {17, 17}, {31, 33}, {64, 64}};

struct Row {
  std::string kernel;
  Shape shape;
  double ns_per_call = 0.0;
  double mflops = 0.0;
};

double flops_of(const std::string& kernel, const Shape& s) {
  const double mn = static_cast<double>(s.rows * s.cols);
  if (kernel == "gemv" || kernel == "gemv_t_acc") return 2.0 * mn;
  if (kernel == "gemm_batch4") return 2.0 * mn * 4.0;
  if (kernel == "momentum_mat") return 7.0 * mn;
  if (kernel == "momentum_mat2") return 9.0 * mn;
  if (kernel == "sigmoid") return 0.0;  // transcendental; rate not comparable
  return 0.0;
}

template <typename Fn>
double time_best_ns(std::size_t iters, Fn&& fn) {
  double best = 0.0;
  for (int rep = 0; rep < kReps; ++rep) {
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < iters; ++i) fn();
    const double ns =
        std::chrono::duration<double, std::nano>(Clock::now() - t0).count() /
        static_cast<double>(iters);
    if (rep == 0 || ns < best) best = ns;
  }
  return best;
}

std::vector<double> random_vec(std::size_t n, util::Rng& rng) {
  std::vector<double> v(n);
  for (double& x : v) x = rng.normal(0.0, 1.0);
  return v;
}

}  // namespace

int main() {
  bench::print_header("ann_kernel_bench",
                      "vectorized ANN kernel layer microbenchmark");
  std::printf("dispatch: %s (simd_active=%d)\n", ann::kernels::arch_name(),
              ann::kernels::simd_active() ? 1 : 0);
  std::printf("%-14s %9s %12s %10s\n", "kernel", "shape", "ns/call",
              "mflop/s");

  util::Rng rng(2015);
  std::vector<Row> rows;

  for (const Shape& s : kShapes) {
    const std::size_t mn = s.rows * s.cols;
    // Iteration count scaled so each timing loop runs ~1 ms.
    const std::size_t iters = 2'000'000 / (mn + 32) + 64;

    auto w = random_vec(mn, rng);
    auto vel = random_vec(mn, rng);
    auto x = random_vec(s.cols, rng);
    auto a = random_vec(s.rows, rng);
    auto a2 = random_vec(s.rows, rng);
    auto x2 = random_vec(s.cols, rng);
    auto y = random_vec(s.rows, rng);
    ann::kernels::BatchMatrix xb(4, s.cols);
    ann::kernels::BatchMatrix yb(4, s.rows);
    for (std::size_t b = 0; b < 4; ++b) xb.set_row(b, random_vec(s.cols, rng));

    const auto push = [&](const std::string& kernel, double ns) {
      const double fl = flops_of(kernel, s);
      rows.push_back(
          {kernel, s, ns, fl > 0.0 ? fl / ns * 1e3 : 0.0});
      std::printf("%-14s %4zux%-4zu %12.1f %10.0f\n", kernel.c_str(), s.rows,
                  s.cols, ns, rows.back().mflops);
    };

    push("gemv", time_best_ns(iters, [&] {
           ann::kernels::gemv(w.data(), s.rows, s.cols, x.data(), y.data());
         }));
    push("gemv_t_acc", time_best_ns(iters, [&] {
           ann::kernels::gemv_t_acc(w.data(), s.rows, s.cols, a.data(),
                                    x2.data());
         }));
    push("gemm_batch4", time_best_ns(iters, [&] {
           ann::kernels::gemm_batch(w.data(), s.rows, s.cols, xb.data(), 4,
                                    xb.ld(), yb.data(), yb.ld());
         }));
    push("momentum_mat", time_best_ns(iters, [&] {
           ann::kernels::momentum_mat_n(w.data(), vel.data(), a.data(),
                                        x.data(), 0.7, 0.2, -1e-5, s.rows,
                                        s.cols);
         }));
    push("momentum_mat2", time_best_ns(iters, [&] {
           ann::kernels::momentum_mat2_n(w.data(), vel.data(), a.data(),
                                         x.data(), a2.data(), x2.data(), 0.5,
                                         0.1, -1e-4, s.rows, s.cols);
         }));
    // Sigmoid over a row of rows*cols elements (vector length, not a matrix).
    push("sigmoid", time_best_ns(iters, [&] {
           ann::kernels::sigmoid_n(w.data(), mn);
         }));
  }

  std::FILE* f = std::fopen("BENCH_ann.json", "w");
  if (!f) {
    std::fprintf(stderr, "cannot write BENCH_ann.json\n");
    return 1;
  }
  std::fprintf(f, "{\n  \"dispatch\": \"%s\",\n  \"kernels\": [\n",
               ann::kernels::arch_name());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(f,
                 "    {\"kernel\": \"%s\", \"rows\": %zu, \"cols\": %zu, "
                 "\"ns_per_call\": %.1f, \"mflops\": %.0f}%s\n",
                 r.kernel.c_str(), r.shape.rows, r.shape.cols, r.ns_per_call,
                 r.mflops, i + 1 == rows.size() ? "" : ",");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote BENCH_ann.json (%zu rows)\n", rows.size());
  return 0;
}
