// Dense row-major matrix kernels for the ANN stack.
//
// The networks here are tiny (tens of units), so clarity beats blocking
// tricks; everything is plain double loops with bounds asserted in debug.
#pragma once

#include <cstddef>
#include <vector>

#include "util/rng.hpp"

namespace solsched::ann {

using Vector = std::vector<double>;

/// Row-major dense matrix.
class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0);

  /// Gaussian-initialized matrix (mean 0, given stddev).
  static Matrix randn(std::size_t rows, std::size_t cols, util::Rng& rng,
                      double stddev);

  std::size_t rows() const noexcept { return rows_; }
  std::size_t cols() const noexcept { return cols_; }

  double operator()(std::size_t r, std::size_t c) const {
    return data_[r * cols_ + c];
  }
  double& operator()(std::size_t r, std::size_t c) {
    return data_[r * cols_ + c];
  }

  const std::vector<double>& data() const noexcept { return data_; }
  std::vector<double>& data() noexcept { return data_; }

  /// y = W x  (x.size() == cols).
  Vector multiply(const Vector& x) const;

  /// y = W x written into a caller-owned buffer (resized as needed) — the
  /// allocation-free variant the training inner loops use.
  void multiply_into(const Vector& x, Vector& y) const;

  /// y = W^T x  (x.size() == rows).
  Vector multiply_transposed(const Vector& x) const;

  /// y = W^T x into a caller-owned buffer (resized as needed).
  void multiply_transposed_into(const Vector& x, Vector& y) const;

  /// W += scale * other (same shape).
  void add_scaled(const Matrix& other, double scale);

  /// Scales all entries.
  void scale(double factor);

  /// Frobenius norm.
  double frobenius() const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

/// Element-wise logistic sigmoid.
double sigmoid(double x) noexcept;
/// In-place sigmoid over a vector.
void sigmoid_inplace(Vector& v) noexcept;
/// Derivative of sigmoid given its output value s: s (1 - s).
double sigmoid_deriv_from_output(double s) noexcept;

/// v += w (same size).
void add_inplace(Vector& v, const Vector& w);
/// Mean squared error between two equal-size vectors.
double mse(const Vector& a, const Vector& b);

/// Fused SGD-with-momentum step over one weight matrix:
///   vel = momentum * vel + coeff * (a b^T + decay * w);  w += vel.
/// One pass over w/vel instead of building a gradient matrix and walking
/// the weights four times.
void momentum_update(Matrix& w, Matrix& vel, const Vector& a, const Vector& b,
                     double momentum, double coeff, double decay);

/// Same with the contrastive-divergence two-term gradient:
///   vel = momentum * vel + coeff * (a1 b1^T - a2 b2^T + decay * w);
///   w += vel.
void momentum_update2(Matrix& w, Matrix& vel, const Vector& a1,
                      const Vector& b1, const Vector& a2, const Vector& b2,
                      double momentum, double coeff, double decay);

}  // namespace solsched::ann
