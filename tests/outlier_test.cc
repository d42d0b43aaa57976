#include "recover/outlier.h"

#include <gtest/gtest.h>

#include "util/random.h"

namespace ldpr {
namespace {

std::vector<std::vector<double>> MakeHistory(size_t epochs, size_t d,
                                             double noise, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<double>> history;
  for (size_t e = 0; e < epochs; ++e) {
    std::vector<double> epoch(d);
    for (size_t v = 0; v < d; ++v)
      epoch[v] = 0.1 + noise * (rng.UniformDouble() - 0.5);
    history.push_back(std::move(epoch));
  }
  return history;
}

TEST(OutlierTest, FlagsInflatedItems) {
  const size_t d = 20;
  const auto history = MakeHistory(8, d, 0.01, 1);
  std::vector<double> current = history.back();
  current[7] += 0.2;   // targeted poisoning spike
  current[13] += 0.15;
  const auto outliers = DetectFrequencyOutliers(history, current);
  EXPECT_EQ(outliers, (std::vector<ItemId>{7, 13}));
}

TEST(OutlierTest, NoFalsePositivesOnCleanEpoch) {
  const auto history = MakeHistory(8, 20, 0.01, 2);
  // A current epoch drawn from the same law.
  const auto current = MakeHistory(1, 20, 0.01, 99).front();
  const auto outliers = DetectFrequencyOutliers(history, current);
  EXPECT_TRUE(outliers.empty());
}

TEST(OutlierTest, IgnoresDownwardDeviations) {
  const auto history = MakeHistory(8, 10, 0.01, 3);
  std::vector<double> current = history.back();
  current[4] -= 0.09;  // deflation is not targeted-poisoning signal
  EXPECT_TRUE(DetectFrequencyOutliers(history, current).empty());
}

TEST(OutlierTest, RequiresMinimumHistory) {
  const auto history = MakeHistory(2, 10, 0.01, 4);
  std::vector<double> current = history.back();
  current[0] += 0.5;
  // Two epochs are one short of the 3 the detector needs.
  EXPECT_TRUE(DetectFrequencyOutliers(history, current).empty());
}

TEST(OutlierTest, StddevFloorHandlesConstantHistory) {
  std::vector<std::vector<double>> history(5, std::vector<double>(4, 0.25));
  std::vector<double> current = {0.25, 0.25, 0.25 + 1e-3, 0.25};
  // A 1e-3 bump over a constant history is a huge z-score thanks to
  // the floor, but not a NaN/crash.
  const auto found = DetectFrequencyOutliers(history, current);
  EXPECT_EQ(found, (std::vector<ItemId>{2}));
}

TEST(TopFrequencyGainersTest, PicksLargestIncreases) {
  const std::vector<double> before = {0.1, 0.2, 0.3, 0.4};
  const std::vector<double> after = {0.15, 0.5, 0.28, 0.42};
  const auto top2 = TopFrequencyGainers(before, after, 2);
  ASSERT_EQ(top2.size(), 2u);
  EXPECT_EQ(top2[0], 1u);  // +0.30
  EXPECT_EQ(top2[1], 0u);  // +0.05
}

TEST(TopFrequencyGainersTest, KClampedToDomain) {
  const std::vector<double> before = {0.5, 0.5};
  const std::vector<double> after = {0.6, 0.4};
  EXPECT_EQ(TopFrequencyGainers(before, after, 10).size(), 2u);
}

}  // namespace
}  // namespace ldpr
