#include "attack/multi_attacker.h"

#include <gtest/gtest.h>

#include "attack/adaptive.h"
#include "attack/mga.h"
#include "ldp/grr.h"
#include "report_oracle.h"

namespace ldpr {
namespace {

TEST(MultiAttackerTest, CraftsExactTotal) {
  const Grr grr(20, 0.5);
  const auto attack = MakeMultiAdaptive();
  Rng rng(1);
  EXPECT_EQ(CraftReports(*attack, grr, 1234, rng).size(), 1234u);
  EXPECT_EQ(CraftReports(*attack, grr, 0, rng).size(), 0u);
}

TEST(MultiAttackerTest, TargetsAreDeduplicatedUnion) {
  std::vector<std::unique_ptr<Attack>> parts;
  parts.push_back(std::make_unique<MgaAttack>(std::vector<ItemId>{1, 2}));
  parts.push_back(std::make_unique<MgaAttack>(std::vector<ItemId>{2, 3}));
  const MultiAttacker multi(std::move(parts));
  const auto t = multi.targets();
  EXPECT_EQ(t, (std::vector<ItemId>{1, 2, 3}));
}

TEST(MultiAttackerTest, MixtureOfFixedDistributions) {
  // Two attackers with disjoint point masses: the combined reports
  // cover both, at roughly half weight each.
  const size_t d = 10;
  const Grr grr(d, 0.5);
  std::vector<double> d1(d, 0.0), d2(d, 0.0);
  d1[0] = 1.0;
  d2[9] = 1.0;
  std::vector<std::unique_ptr<Attack>> parts;
  parts.push_back(std::make_unique<AdaptiveAttack>(d1));
  parts.push_back(std::make_unique<AdaptiveAttack>(d2));
  const MultiAttacker multi(std::move(parts));

  Rng rng(2);
  std::vector<int> counts(d, 0);
  const size_t m = 20000;
  for (const Report& r : CraftReports(multi, grr, m, rng)) ++counts[r.value];
  EXPECT_EQ(counts[0] + counts[9], static_cast<int>(m));
  EXPECT_NEAR(static_cast<double>(counts[0]) / m, 0.5, 0.02);
}

TEST(MultiAttackerTest, SingleAttackerDegeneratesToComponent) {
  const Grr grr(8, 0.5);
  std::vector<double> dist(8, 0.0);
  dist[3] = 1.0;
  std::vector<std::unique_ptr<Attack>> parts;
  parts.push_back(std::make_unique<AdaptiveAttack>(dist));
  const MultiAttacker multi(std::move(parts));
  Rng rng(3);
  for (const Report& r : CraftReports(multi, grr, 100, rng)) EXPECT_EQ(r.value, 3u);
}

TEST(MultiAttackerDeathTest, RejectsEmptyList) {
  EXPECT_DEATH(MultiAttacker({}), "LDPR_CHECK");
}

}  // namespace
}  // namespace ldpr
