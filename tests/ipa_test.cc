#include "attack/ipa.h"

#include <gtest/gtest.h>

#include "attack/mga.h"
#include "ldp/grr.h"
#include "ldp/oue.h"
#include "util/metrics.h"
#include "report_oracle.h"

namespace ldpr {
namespace {

TEST(IpaTest, MgaIpaTargetsRecorded) {
  const auto attack = MakeMgaIpa(50, {1, 2, 3});
  EXPECT_EQ(attack->targets().size(), 3u);
}

TEST(IpaTest, ReportsAreHonestlyPerturbed) {
  // Under IPA a malicious GRR report lands on a *non*-target with
  // probability (d - r) * q — unlike the general attack, which never
  // wastes a report.
  const size_t d = 20;
  const Grr grr(d, 0.5);
  const auto attack = MakeMgaIpa(d, {0});
  Rng rng(1);
  size_t on_target = 0;
  const size_t m = 40000;
  for (const Report& r : CraftReports(*attack, grr, m, rng))
    on_target += (r.value == 0) ? 1 : 0;
  // Pr[report = 0 | input = 0] = p < 1.
  EXPECT_NEAR(static_cast<double>(on_target) / m, grr.p(), 0.01);
  EXPECT_LT(static_cast<double>(on_target) / m, 0.25);
}

TEST(IpaTest, OueReportsLookGenuine) {
  const size_t d = 100;
  const Oue oue(d, 0.5);
  const auto attack = MakeMgaIpa(d, {5});
  Rng rng(2);
  double total_ones = 0.0;
  const size_t m = 2000;
  for (const Report& r : CraftReports(*attack, oue, m, rng)) {
    for (uint8_t b : r.bits) total_ones += b;
  }
  // Honest perturbation: 1-count concentrates at the genuine mean,
  // not at r + padding.
  EXPECT_NEAR(total_ones / static_cast<double>(m), oue.ExpectedOnes(), 0.5);
}

TEST(IpaTest, WeakerThanGeneralMga) {
  // Figure 8's core claim: MGA-IPA moves the aggregate far less than
  // general MGA at the same malicious count.
  const size_t d = 30;
  const Grr grr(d, 0.5);
  Rng rng(3);
  const size_t n = 40000, m = 4000;
  std::vector<uint64_t> item_counts(d, n / d);
  const std::vector<ItemId> targets = {7};

  auto run = [&](const Attack& attack) {
    auto counts = grr.SampleSupportCounts(item_counts, rng);
    const auto genuine = grr.EstimateFrequencies(counts, n);
    ReportBatch crafted;
    ReportBatch::Builder builder(crafted);
    attack.CraftBatch(grr, m, rng, builder);
    grr.AccumulateSupportsBatch(crafted, counts);
    const auto poisoned = grr.EstimateFrequencies(counts, n + m);
    return FrequencyGain(genuine, poisoned, targets);
  };

  const MgaAttack general(targets);
  const auto ipa = MakeMgaIpa(d, targets);
  const double fg_general = run(general);
  const double fg_ipa = run(*ipa);
  EXPECT_GT(fg_general, 0.0);
  EXPECT_LT(fg_ipa, 0.6 * fg_general);
}

TEST(IpaTest, CustomDistributionDrivesInputs) {
  const size_t d = 6;
  const Grr grr(d, 3.0);  // high epsilon: reports mostly truthful
  std::vector<double> dist(d, 0.0);
  dist[4] = 1.0;
  const InputPoisoningAttack attack(dist, {});
  Rng rng(4);
  size_t hits = 0;
  const size_t m = 10000;
  for (const Report& r : CraftReports(attack, grr, m, rng))
    hits += (r.value == 4) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / m, grr.p(), 0.02);
}

}  // namespace
}  // namespace ldpr
