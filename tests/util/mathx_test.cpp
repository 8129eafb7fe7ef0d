#include "util/mathx.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace solsched::util {
namespace {

TEST(Clamp, Basics) {
  EXPECT_EQ(clamp(5.0, 0.0, 10.0), 5.0);
  EXPECT_EQ(clamp(-1.0, 0.0, 10.0), 0.0);
  EXPECT_EQ(clamp(11.0, 0.0, 10.0), 10.0);
}

TEST(Lerp, EndpointsAndMidpoint) {
  EXPECT_EQ(lerp(2.0, 4.0, 0.0), 2.0);
  EXPECT_EQ(lerp(2.0, 4.0, 1.0), 4.0);
  EXPECT_EQ(lerp(2.0, 4.0, 0.5), 3.0);
}

TEST(Linspace, CountAndEndpoints) {
  const auto v = linspace(0.0, 1.0, 5);
  ASSERT_EQ(v.size(), 5u);
  EXPECT_DOUBLE_EQ(v.front(), 0.0);
  EXPECT_DOUBLE_EQ(v.back(), 1.0);
  EXPECT_DOUBLE_EQ(v[2], 0.5);
}

TEST(Linspace, DegenerateSizes) {
  EXPECT_TRUE(linspace(0, 1, 0).empty());
  const auto one = linspace(3.0, 9.0, 1);
  ASSERT_EQ(one.size(), 1u);
  EXPECT_DOUBLE_EQ(one[0], 3.0);
}

TEST(Polyval, EvaluatesHorner) {
  // 1 + 2x + 3x^2 at x = 2 -> 17.
  EXPECT_DOUBLE_EQ(polyval({1.0, 2.0, 3.0}, 2.0), 17.0);
  EXPECT_DOUBLE_EQ(polyval({}, 5.0), 0.0);
}

TEST(Interp1, InteriorAndClamping) {
  const std::vector<double> xs{0.0, 1.0, 2.0};
  const std::vector<double> ys{0.0, 10.0, 0.0};
  EXPECT_DOUBLE_EQ(interp1(xs, ys, 0.5), 5.0);
  EXPECT_DOUBLE_EQ(interp1(xs, ys, 1.5), 5.0);
  EXPECT_DOUBLE_EQ(interp1(xs, ys, -1.0), 0.0);  // Clamp left.
  EXPECT_DOUBLE_EQ(interp1(xs, ys, 9.0), 0.0);   // Clamp right.
}

TEST(Interp1, ThrowsOnBadTables) {
  EXPECT_THROW(interp1({}, {}, 0.0), std::invalid_argument);
  EXPECT_THROW(interp1({1.0}, {1.0, 2.0}, 0.0), std::invalid_argument);
}

TEST(SolveLinear, TwoByTwo) {
  // x + y = 3; x - y = 1 -> x = 2, y = 1.
  std::vector<double> x;
  ASSERT_TRUE(solve_linear({1, 1, 1, -1}, {3, 1}, 2, x));
  EXPECT_NEAR(x[0], 2.0, 1e-12);
  EXPECT_NEAR(x[1], 1.0, 1e-12);
}

TEST(SolveLinear, NeedsPivoting) {
  // First pivot is zero; succeeds only with row exchange.
  std::vector<double> x;
  ASSERT_TRUE(solve_linear({0, 1, 1, 0}, {5, 7}, 2, x));
  EXPECT_NEAR(x[0], 7.0, 1e-12);
  EXPECT_NEAR(x[1], 5.0, 1e-12);
}

TEST(SolveLinear, SingularFails) {
  std::vector<double> x;
  EXPECT_FALSE(solve_linear({1, 2, 2, 4}, {1, 2}, 2, x));
}

TEST(SolveLinear, SizeMismatchFails) {
  std::vector<double> x;
  EXPECT_FALSE(solve_linear({1, 0, 0, 1}, {1}, 2, x));
}

TEST(GoldenMinimize, Parabola) {
  const double m = golden_minimize([](double x) { return (x - 3.0) * (x - 3.0); },
                                   0.0, 10.0, 1e-6);
  EXPECT_NEAR(m, 3.0, 1e-4);
}

TEST(GoldenMinimize, BoundaryMinimum) {
  const double m =
      golden_minimize([](double x) { return x; }, 2.0, 5.0, 1e-6);
  EXPECT_NEAR(m, 2.0, 1e-4);
}

}  // namespace
}  // namespace solsched::util
