#include "attack/manip.h"

#include <set>

#include <gtest/gtest.h>

#include "ldp/grr.h"
#include "ldp/olh.h"
#include "ldp/oue.h"
#include "util/metrics.h"
#include "report_oracle.h"

namespace ldpr {
namespace {

TEST(ManipTest, CraftsRequestedCount) {
  const Grr grr(20, 0.5);
  const ManipAttack attack;
  Rng rng(1);
  EXPECT_EQ(CraftReports(attack, grr, 0, rng).size(), 0u);
  EXPECT_EQ(CraftReports(attack, grr, 123, rng).size(), 123u);
}

TEST(ManipTest, IsUntargeted) {
  EXPECT_TRUE(ManipAttack().targets().empty());
}

TEST(ManipTest, GrrReportsConfinedToSubdomain) {
  const size_t d = 40;
  const Grr grr(d, 0.5);
  const ManipAttack attack;
  Rng rng(2);
  const auto reports = CraftReports(attack, grr, 2000, rng);
  std::set<uint32_t> values;
  for (const Report& r : reports) values.insert(r.value);
  // |H| = d / 2 = 20, and 2000 draws hit every item of H.
  EXPECT_EQ(values.size(), 20u);
}

TEST(ManipTest, OueReportsAreOneHot) {
  const Oue oue(15, 0.5);
  const ManipAttack attack;
  Rng rng(4);
  for (const Report& r : CraftReports(attack, oue, 50, rng)) {
    int ones = 0;
    for (uint8_t b : r.bits) ones += b;
    EXPECT_EQ(ones, 1);
  }
}

TEST(ManipTest, OlhReportsSupportTheirItem) {
  const Olh olh(30, 0.5);
  const ManipAttack attack;
  Rng rng(5);
  const auto reports = CraftReports(attack, olh, 100, rng);
  for (const Report& r : reports) {
    int supported = 0;
    for (ItemId v = 0; v < 30; ++v)
      supported += oracle::Supports(olh, r, v) ? 1 : 0;
    EXPECT_GE(supported, 1);  // at least the chosen item
  }
}

TEST(ManipTest, DistortsAggregatedDistribution) {
  // The attack's purpose: the poisoned estimate drifts from the truth
  // in L1 (the paper's Manip objective).
  const size_t d = 20;
  const Grr grr(d, 0.5);
  Rng rng(6);
  const size_t n = 50000, m = 5000;
  std::vector<uint64_t> item_counts(d, n / d);

  const auto genuine_counts = grr.SampleSupportCounts(item_counts, rng);
  const auto genuine = grr.EstimateFrequencies(genuine_counts, n);

  const ManipAttack attack;
  auto poisoned_counts = genuine_counts;
  ReportBatch crafted;
  ReportBatch::Builder builder(crafted);
  attack.CraftBatch(grr, m, rng, builder);
  grr.AccumulateSupportsBatch(crafted, poisoned_counts);
  const auto poisoned = grr.EstimateFrequencies(poisoned_counts, n + m);

  std::vector<double> truth(d, 1.0 / d);
  EXPECT_GT(L1Distance(truth, poisoned), 2.0 * L1Distance(truth, genuine));
}

}  // namespace
}  // namespace ldpr
