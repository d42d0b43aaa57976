#include "attack/mga.h"

#include <algorithm>
#include <cmath>
#include <set>

#include <gtest/gtest.h>

#include "ldp/grr.h"
#include "ldp/olh.h"
#include "ldp/oue.h"
#include "util/metrics.h"
#include "report_oracle.h"

namespace ldpr {
namespace {

TEST(MgaTest, SampleTargetsDistinctInRange) {
  Rng rng(1);
  const auto targets = MgaAttack::SampleTargets(102, 10, rng);
  EXPECT_EQ(targets.size(), 10u);
  std::set<ItemId> unique(targets.begin(), targets.end());
  EXPECT_EQ(unique.size(), 10u);
  for (ItemId t : targets) EXPECT_LT(t, 102u);
}

TEST(MgaTest, ExposesTargets) {
  const MgaAttack attack({3, 7});
  const auto t = attack.targets();
  EXPECT_EQ(t.size(), 2u);
}

TEST(MgaTest, GrrReportsAreAllTargets) {
  const Grr grr(50, 0.5);
  const MgaAttack attack({5, 10, 15});
  Rng rng(2);
  std::set<uint32_t> seen;
  for (const Report& r : CraftReports(attack, grr, 600, rng)) {
    EXPECT_TRUE(r.value == 5 || r.value == 10 || r.value == 15);
    seen.insert(r.value);
  }
  EXPECT_EQ(seen.size(), 3u);  // uniform over targets covers all
}

TEST(MgaTest, OueReportsSetAllTargetBits) {
  const Oue oue(100, 0.5);
  const std::vector<ItemId> targets = {1, 50, 99};
  const MgaAttack attack(targets);
  Rng rng(3);
  for (const Report& r : CraftReports(attack, oue, 40, rng)) {
    for (ItemId t : targets) EXPECT_EQ(r.bits[t], 1);
  }
}

TEST(MgaTest, OuePaddingMatchesExpectedOnes) {
  const size_t d = 200;
  const Oue oue(d, 0.5);
  const MgaAttack attack({0, 1, 2});  // 3 targets << expected ones
  Rng rng(4);
  const size_t expected =
      static_cast<size_t>(std::llround(oue.ExpectedOnes()));
  for (const Report& r : CraftReports(attack, oue, 20, rng)) {
    size_t ones = 0;
    for (uint8_t b : r.bits) ones += b;
    EXPECT_EQ(ones, expected);
  }
}

TEST(MgaTest, OlhReportsSupportManyTargets) {
  const Olh olh(102, 0.5);  // g = 3
  Rng rng(6);
  const auto targets = MgaAttack::SampleTargets(102, 10, rng);
  const MgaAttack attack(targets);
  double total_supported = 0.0;
  const size_t m = 50;
  for (const Report& r : CraftReports(attack, olh, m, rng)) {
    size_t supported = 0;
    for (ItemId t : targets) supported += oracle::Supports(olh, r, t) ? 1 : 0;
    EXPECT_GE(supported, 1u);
    total_supported += static_cast<double>(supported);
  }
  // Seed search should beat the genuine rate (p for one target +
  // q for the rest ~= r/g on average); require clearly more than r/g.
  const double baseline = 10.0 / olh.g();
  EXPECT_GT(total_supported / static_cast<double>(m), baseline * 1.1);
}

TEST(MgaTest, InflatesTargetFrequencies) {
  // End-to-end sanity: MGA lifts target estimates well above truth.
  const size_t d = 60;
  const Oue oue(d, 0.5);
  Rng rng(7);
  const size_t n = 40000, m = 2000;
  std::vector<uint64_t> item_counts(d, n / d);

  const std::vector<ItemId> targets = {11, 22, 33};
  const MgaAttack attack(targets);

  auto counts = oue.SampleSupportCounts(item_counts, rng);
  const auto genuine = oue.EstimateFrequencies(counts, n);
  ReportBatch crafted;
  ReportBatch::Builder builder(crafted);
  attack.CraftBatch(oue, m, rng, builder);
  oue.AccumulateSupportsBatch(crafted, counts);
  const auto poisoned = oue.EstimateFrequencies(counts, n + m);

  const double fg = FrequencyGain(genuine, poisoned, targets);
  // Each fake OUE user contributes gain ~1/((p-q)(n+m)) per target;
  // with m=2000 the total gain is substantial.
  EXPECT_GT(fg, 0.05);
}

TEST(MgaDeathTest, RejectsEmptyTargets) {
  EXPECT_DEATH(MgaAttack({}), "LDPR_CHECK");
}

}  // namespace
}  // namespace ldpr
