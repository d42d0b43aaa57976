#include "attack/adaptive.h"

#include <cmath>

#include <gtest/gtest.h>

#include "ldp/grr.h"
#include "ldp/oue.h"
#include "report_oracle.h"

namespace ldpr {
namespace {

TEST(AdaptiveTest, CraftsRequestedCount) {
  const Grr grr(30, 0.5);
  const AdaptiveAttack attack;
  Rng rng(1);
  EXPECT_EQ(CraftReports(attack, grr, 500, rng).size(), 500u);
}

TEST(AdaptiveTest, IsUntargeted) {
  EXPECT_TRUE(AdaptiveAttack().targets().empty());
}

TEST(AdaptiveTest, FixedDistributionIsRespected) {
  const size_t d = 5;
  const Grr grr(d, 0.5);
  std::vector<double> dist(d, 0.0);
  dist[2] = 0.75;
  dist[4] = 0.25;
  const AdaptiveAttack attack(dist);
  Rng rng(2);
  std::vector<int> counts(d, 0);
  const size_t m = 40000;
  for (const Report& r : CraftReports(attack, grr, m, rng)) ++counts[r.value];
  EXPECT_EQ(counts[0] + counts[1] + counts[3], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / m, 0.75, 0.01);
  EXPECT_NEAR(static_cast<double>(counts[4]) / m, 0.25, 0.01);
}

TEST(AdaptiveTest, MgaIsASpecialCase) {
  // The adaptive attack with mass 1/r on targets reproduces MGA-GRR:
  // every crafted report carries a target.
  const size_t d = 20;
  const Grr grr(d, 0.5);
  std::vector<double> dist(d, 0.0);
  dist[3] = dist[9] = 0.5;
  const AdaptiveAttack attack(dist);
  Rng rng(3);
  for (const Report& r : CraftReports(attack, grr, 300, rng))
    EXPECT_TRUE(r.value == 3 || r.value == 9);
}

TEST(AdaptiveTest, RandomDistributionVariesAcrossCalls) {
  // Each Craft() draws a fresh attacker-designed distribution, so two
  // large batches differ in their item histograms.
  const size_t d = 10;
  const Grr grr(d, 0.5);
  const AdaptiveAttack attack;
  Rng rng(4);
  auto histogram = [&](const std::vector<Report>& reports) {
    std::vector<double> h(d, 0.0);
    for (const Report& r : reports) h[r.value] += 1.0;
    return h;
  };
  const auto h1 = histogram(CraftReports(attack, grr, 20000, rng));
  const auto h2 = histogram(CraftReports(attack, grr, 20000, rng));
  double l1 = 0.0;
  for (size_t v = 0; v < d; ++v) l1 += std::abs(h1[v] - h2[v]) / 20000.0;
  EXPECT_GT(l1, 0.05);  // flat-Dirichlet draws differ markedly
}

TEST(AdaptiveTest, OueReportsAreOneHotEncodedSamples) {
  const Oue oue(25, 0.5);
  const AdaptiveAttack attack;
  Rng rng(5);
  for (const Report& r : CraftReports(attack, oue, 60, rng)) {
    int ones = 0;
    for (uint8_t b : r.bits) ones += b;
    EXPECT_EQ(ones, 1);
  }
}

TEST(AdaptiveDeathTest, RejectsWrongSizeDistribution) {
  const Grr grr(10, 0.5);
  const AdaptiveAttack attack(std::vector<double>{0.5, 0.5});
  Rng rng(6);
  EXPECT_DEATH((void)CraftReports(attack, grr, 5, rng), "LDPR_CHECK");
}

}  // namespace
}  // namespace ldpr
