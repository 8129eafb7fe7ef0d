#include "util/stats.hpp"

#include <gtest/gtest.h>

namespace solsched::util {
namespace {

TEST(Stats, MeanBasics) {
  EXPECT_DOUBLE_EQ(mean({1.0, 2.0, 3.0}), 2.0);
  EXPECT_DOUBLE_EQ(mean({}), 0.0);
}

TEST(Stats, StddevPopulation) {
  EXPECT_NEAR(stddev({2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}), 2.0, 1e-12);
  EXPECT_DOUBLE_EQ(stddev({5.0}), 0.0);
}

TEST(Stats, MinMaxSum) {
  const std::vector<double> xs{3.0, -1.0, 7.0};
  EXPECT_DOUBLE_EQ(min_of(xs), -1.0);
  EXPECT_DOUBLE_EQ(max_of(xs), 7.0);
  EXPECT_DOUBLE_EQ(sum(xs), 9.0);
  EXPECT_DOUBLE_EQ(min_of({}), 0.0);
}

TEST(Stats, PercentileInterpolates) {
  const std::vector<double> xs{10.0, 20.0, 30.0, 40.0};
  EXPECT_DOUBLE_EQ(percentile(xs, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 100.0), 40.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 50.0), 25.0);
}

TEST(Stats, CorrelationSigns) {
  const std::vector<double> xs{1.0, 2.0, 3.0, 4.0};
  const std::vector<double> up{2.0, 4.0, 6.0, 8.0};
  const std::vector<double> down{8.0, 6.0, 4.0, 2.0};
  EXPECT_NEAR(correlation(xs, up), 1.0, 1e-12);
  EXPECT_NEAR(correlation(xs, down), -1.0, 1e-12);
}

TEST(Stats, CorrelationDegenerate) {
  EXPECT_DOUBLE_EQ(correlation({1.0, 1.0}, {2.0, 3.0}), 0.0);
  EXPECT_DOUBLE_EQ(correlation({1.0}, {2.0}), 0.0);
}

}  // namespace
}  // namespace solsched::util
