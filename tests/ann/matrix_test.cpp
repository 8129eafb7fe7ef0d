#include "ann/matrix.hpp"

#include <gtest/gtest.h>

namespace solsched::ann {
namespace {

TEST(Matrix, ConstructionAndIndexing) {
  Matrix m(2, 3, 1.5);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_DOUBLE_EQ(m(1, 2), 1.5);
  m(0, 1) = 7.0;
  EXPECT_DOUBLE_EQ(m(0, 1), 7.0);
}

TEST(Matrix, Multiply) {
  Matrix m(2, 3);
  // [[1,2,3],[4,5,6]] * [1,1,1] = [6,15].
  double v = 1.0;
  for (std::size_t r = 0; r < 2; ++r)
    for (std::size_t c = 0; c < 3; ++c) m(r, c) = v++;
  const Vector y = m.multiply({1.0, 1.0, 1.0});
  ASSERT_EQ(y.size(), 2u);
  EXPECT_DOUBLE_EQ(y[0], 6.0);
  EXPECT_DOUBLE_EQ(y[1], 15.0);
}

TEST(Matrix, MultiplyTransposed) {
  Matrix m(2, 3);
  double v = 1.0;
  for (std::size_t r = 0; r < 2; ++r)
    for (std::size_t c = 0; c < 3; ++c) m(r, c) = v++;
  const Vector y = m.multiply_transposed({1.0, 1.0});
  ASSERT_EQ(y.size(), 3u);
  EXPECT_DOUBLE_EQ(y[0], 5.0);
  EXPECT_DOUBLE_EQ(y[1], 7.0);
  EXPECT_DOUBLE_EQ(y[2], 9.0);
}

TEST(Matrix, SizeMismatchThrows) {
  Matrix m(2, 3);
  EXPECT_THROW(m.multiply({1.0}), std::invalid_argument);
  EXPECT_THROW(m.multiply_transposed({1.0, 2.0, 3.0}), std::invalid_argument);
}

TEST(Matrix, AddScaledAndScale) {
  Matrix a(1, 2, 1.0), b(1, 2, 2.0);
  a.add_scaled(b, 3.0);
  EXPECT_DOUBLE_EQ(a(0, 0), 7.0);
  a.scale(0.5);
  EXPECT_DOUBLE_EQ(a(0, 1), 3.5);
}

TEST(Matrix, Frobenius) {
  Matrix m(1, 2);
  m(0, 0) = 3.0;
  m(0, 1) = 4.0;
  EXPECT_DOUBLE_EQ(m.frobenius(), 5.0);
}

TEST(Matrix, RandnDeterministic) {
  util::Rng r1(5), r2(5);
  const Matrix a = Matrix::randn(3, 3, r1, 0.1);
  const Matrix b = Matrix::randn(3, 3, r2, 0.1);
  EXPECT_EQ(a.data(), b.data());
}

TEST(Activations, SigmoidRangeAndSymmetry) {
  EXPECT_DOUBLE_EQ(sigmoid(0.0), 0.5);
  EXPECT_NEAR(sigmoid(10.0), 1.0, 1e-4);
  EXPECT_NEAR(sigmoid(-10.0), 0.0, 1e-4);
  EXPECT_NEAR(sigmoid(2.0) + sigmoid(-2.0), 1.0, 1e-12);
}

TEST(Activations, SigmoidDeriv) {
  const double s = sigmoid(0.7);
  EXPECT_DOUBLE_EQ(sigmoid_deriv_from_output(s), s * (1.0 - s));
}

TEST(VectorOps, AddInplaceAndMse) {
  Vector v{1.0, 2.0};
  add_inplace(v, {0.5, 0.5});
  EXPECT_DOUBLE_EQ(v[0], 1.5);
  EXPECT_DOUBLE_EQ(mse({1.0, 2.0}, {1.0, 4.0}), 2.0);
  EXPECT_THROW(add_inplace(v, {1.0}), std::invalid_argument);
  EXPECT_THROW(mse({1.0}, {1.0, 2.0}), std::invalid_argument);
}

}  // namespace
}  // namespace solsched::ann
