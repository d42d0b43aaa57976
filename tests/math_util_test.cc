#include "util/math_util.h"

#include <cmath>

#include <gtest/gtest.h>

namespace ldpr {
namespace {

TEST(VectorOpsTest, SumAdd) {
  const std::vector<double> a = {1.0, 2.0, 3.0};
  const std::vector<double> b = {0.5, -1.0, 2.0};
  EXPECT_DOUBLE_EQ(Sum(a), 6.0);
  const auto sum = Add(a, b);
  EXPECT_DOUBLE_EQ(sum[0], 1.5);
  EXPECT_DOUBLE_EQ(sum[1], 1.0);
  EXPECT_DOUBLE_EQ(sum[2], 5.0);
}

TEST(IsProbabilityVectorTest, AcceptsValid) {
  EXPECT_TRUE(IsProbabilityVector({0.25, 0.25, 0.5}));
  EXPECT_TRUE(IsProbabilityVector({1.0}));
  EXPECT_TRUE(IsProbabilityVector({0.0, 1.0}));
}

TEST(IsProbabilityVectorTest, RejectsInvalid) {
  EXPECT_FALSE(IsProbabilityVector({0.5, 0.6}));          // sums to 1.1
  EXPECT_FALSE(IsProbabilityVector({-0.1, 1.1}));         // negative entry
  EXPECT_FALSE(IsProbabilityVector({0.5, std::nan("")})); // NaN
}

TEST(IsProbabilityVectorTest, ToleranceScalesWithSize) {
  std::vector<double> v(1000, 1.0 / 1000.0);
  v[0] += 1e-10;  // tiny rounding drift
  EXPECT_TRUE(IsProbabilityVector(v));
}

}  // namespace
}  // namespace ldpr
