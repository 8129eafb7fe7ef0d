#include "ann/matrix.hpp"

#include <stdexcept>

#include "ann/kernels/exp_kernel.hpp"
#include "ann/kernels/kernels.hpp"

namespace solsched::ann {

Matrix::Matrix(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

Matrix Matrix::randn(std::size_t rows, std::size_t cols, util::Rng& rng,
                     double stddev) {
  Matrix m(rows, cols);
  for (double& w : m.data_) w = rng.normal(0.0, stddev);
  return m;
}

Vector Matrix::multiply(const Vector& x) const {
  Vector y;
  multiply_into(x, y);
  return y;
}

void Matrix::multiply_into(const Vector& x, Vector& y) const {
  if (x.size() != cols_)
    throw std::invalid_argument("Matrix::multiply: size mismatch");
  y.resize(rows_);
  kernels::gemv(data_.data(), rows_, cols_, x.data(), y.data());
}

Vector Matrix::multiply_transposed(const Vector& x) const {
  Vector y;
  multiply_transposed_into(x, y);
  return y;
}

void Matrix::multiply_transposed_into(const Vector& x, Vector& y) const {
  if (x.size() != rows_)
    throw std::invalid_argument("Matrix::multiply_transposed: size mismatch");
  y.assign(cols_, 0.0);
  kernels::gemv_t_acc(data_.data(), rows_, cols_, x.data(), y.data());
}

void momentum_update(Matrix& w, Matrix& vel, const Vector& a, const Vector& b,
                     double momentum, double coeff, double decay) {
  if (a.size() != w.rows() || b.size() != w.cols() ||
      vel.rows() != w.rows() || vel.cols() != w.cols())
    throw std::invalid_argument("momentum_update: size mismatch");
  kernels::momentum_mat_n(w.data().data(), vel.data().data(), a.data(),
                          b.data(), momentum, coeff, decay, w.rows(),
                          w.cols());
}

void momentum_update2(Matrix& w, Matrix& vel, const Vector& a1,
                      const Vector& b1, const Vector& a2, const Vector& b2,
                      double momentum, double coeff, double decay) {
  if (a1.size() != w.rows() || b1.size() != w.cols() ||
      a2.size() != w.rows() || b2.size() != w.cols() ||
      vel.rows() != w.rows() || vel.cols() != w.cols())
    throw std::invalid_argument("momentum_update2: size mismatch");
  kernels::momentum_mat2_n(w.data().data(), vel.data().data(), a1.data(),
                           b1.data(), a2.data(), b2.data(), momentum, coeff,
                           decay, w.rows(), w.cols());
}

double sigmoid(double x) noexcept { return kernels::sigmoid_d(x); }

void sigmoid_inplace(Vector& v) noexcept {
  kernels::sigmoid_n(v.data(), v.size());
}

double sigmoid_deriv_from_output(double s) noexcept { return s * (1.0 - s); }

void add_inplace(Vector& v, const Vector& w) {
  if (v.size() != w.size())
    throw std::invalid_argument("add_inplace: size mismatch");
  kernels::add_n(v.data(), w.data(), v.size());
}

double mse(const Vector& a, const Vector& b) {
  if (a.size() != b.size()) throw std::invalid_argument("mse: size mismatch");
  if (a.empty()) return 0.0;
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    acc += d * d;
  }
  return acc / static_cast<double>(a.size());
}

}  // namespace solsched::ann
