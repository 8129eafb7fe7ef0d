#include "sched/lut.hpp"

#include <gtest/gtest.h>

namespace solsched::sched {
namespace {

LutEntry entry(double dmr, double solar, double cap, double v0,
               double consumed) {
  LutEntry e;
  e.key = {dmr, solar, cap, v0};
  e.consumed_j = consumed;
  e.alpha = dmr + 1.0;
  e.te = {true, false};
  return e;
}

TEST(Lut, EmptyLookupNull) {
  const Lut lut;
  EXPECT_TRUE(lut.empty());
  EXPECT_EQ(lut.lookup({0.0, 0.0, 0.0, 0.0}), nullptr);
}

TEST(Lut, ExactMatch) {
  Lut lut;
  lut.insert(entry(0.0, 30.0, 10.0, 2.0, 1.5));
  lut.insert(entry(0.5, 30.0, 10.0, 2.0, 0.5));
  const LutEntry* hit = lut.lookup({0.5, 30.0, 10.0, 2.0});
  ASSERT_NE(hit, nullptr);
  EXPECT_DOUBLE_EQ(hit->consumed_j, 0.5);
}

TEST(Lut, NearestNeighborApproximation) {
  Lut lut;
  lut.insert(entry(0.0, 10.0, 10.0, 1.0, 3.0));
  lut.insert(entry(0.0, 50.0, 10.0, 1.0, 1.0));
  // Solar 45 J is nearer the 50 J entry (the paper's closest-input rule).
  const LutEntry* hit = lut.lookup({0.0, 45.0, 10.0, 1.0});
  ASSERT_NE(hit, nullptr);
  EXPECT_DOUBLE_EQ(hit->consumed_j, 1.0);
}

TEST(Lut, NormalizationBalancesDimensions) {
  // Distances divide by per-dimension scales, so a 1 V difference should
  // not be swamped by a 1 J solar difference.
  Lut lut(1.0, 50.0, 50.0, 5.0);
  lut.insert(entry(0.0, 30.0, 10.0, 1.0, 111.0));
  lut.insert(entry(0.0, 31.0, 10.0, 4.5, 222.0));
  const LutEntry* hit = lut.lookup({0.0, 31.0, 10.0, 1.1});
  ASSERT_NE(hit, nullptr);
  EXPECT_DOUBLE_EQ(hit->consumed_j, 111.0);
}

TEST(Lut, SizeTracksInsertions) {
  Lut lut;
  for (int i = 0; i < 5; ++i)
    lut.insert(entry(0.1 * i, 10.0 * i, 10.0, 2.0, i));
  EXPECT_EQ(lut.size(), 5u);
  EXPECT_EQ(lut.entries().size(), 5u);
}

}  // namespace
}  // namespace solsched::sched
