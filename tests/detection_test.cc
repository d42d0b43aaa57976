#include "recover/detection.h"

#include <algorithm>
#include <cmath>
#include <string>

#include <gtest/gtest.h>

#include "attack/mga.h"
#include "data/synthetic.h"
#include "ldp/factory.h"
#include "ldp/grr.h"
#include "ldp/olh.h"
#include "ldp/oue.h"
#include "sim/pipeline.h"
#include "util/metrics.h"

namespace ldpr {
namespace {

// A GRR batch carrying `values` in order.
ReportBatch GrrBatch(const std::vector<uint32_t>& values) {
  ReportBatch batch;
  ReportBatch::Builder builder(batch);
  for (uint32_t v : values) builder.AddValue(v);
  return batch;
}

TEST(DetectionFilterTest, FlagsReportsSupportingTargets) {
  const Grr grr(10, 0.5);
  DetectionFilter hit(grr, {3});
  hit.OfferAll(GrrBatch({3}));
  EXPECT_EQ(hit.kept(), 0u);
  DetectionFilter miss(grr, {3});
  miss.OfferAll(GrrBatch({4}));
  EXPECT_EQ(miss.kept(), 1u);
}

TEST(DetectionFilterTest, OfferDropsSuspicious) {
  const Grr grr(10, 0.5);
  DetectionFilter filter(grr, {0});
  filter.OfferAll(GrrBatch({0, 5, 5}));
  EXPECT_EQ(filter.offered(), 3u);
  EXPECT_EQ(filter.kept(), 2u);
  EXPECT_DOUBLE_EQ(filter.Estimate()[5],
                   grr.EstimateFrequencies({0, 0, 0, 0, 0, 2, 0, 0, 0, 0},
                                           2)[5]);
}

TEST(DetectionFilterTest, RemovesAllMgaReports) {
  // Every MGA report supports a target by construction (a padded row
  // still sets every target bit), so Detection discards the entire
  // malicious cohort.
  const Oue oue(50, 0.5);
  const MgaAttack attack({4, 9});
  Rng rng(1);
  DetectionFilter filter(oue, {4, 9});
  ReportBatch crafted;
  ReportBatch::Builder builder(crafted);
  attack.CraftBatch(oue, 300, rng, builder);
  filter.OfferAll(crafted);
  EXPECT_EQ(filter.kept(), 0u);
}

TEST(DetectionFilterTest, ThresholdsMatchProtocolSignatures) {
  const Grr grr(20, 0.5);
  const Oue oue(20, 0.5);
  const Olh olh(20, 0.5);
  EXPECT_EQ(DetectionFilter(grr, {1, 2, 3, 4}).threshold(), 1u);
  EXPECT_EQ(DetectionFilter(oue, {1, 2, 3, 4}).threshold(), 4u);
  EXPECT_EQ(DetectionFilter(olh, {1, 2, 3, 4}).threshold(), 2u);
}

TEST(DetectionFilterTest, OueCollateralDamageMatchesTheory) {
  // A genuine OUE report is flagged only when *all* r target bits
  // flip to 1 — probability q^r for non-target holders.  Most genuine
  // users survive, but survivors' target rows are biased (the
  // conditional bit law loses mass), which is the collateral damage
  // the paper attributes to Detection.
  const size_t d = 40;
  const size_t r = 3;
  const Oue oue(d, 0.5);
  Rng rng(2);
  DetectionFilter filter(oue, {0, 1, 2});
  const size_t n = 20000;
  ReportBatch genuine;
  ReportBatch::Builder builder(genuine);
  for (size_t i = 0; i < n; ++i)
    oue.AppendGenuineReports(static_cast<ItemId>(10 + i % 20), 1, rng, builder);
  filter.OfferAll(genuine);
  const double keep_rate =
      static_cast<double>(filter.kept()) / static_cast<double>(n);
  const double expected = 1.0 - std::pow(oue.q(), static_cast<double>(r));
  EXPECT_NEAR(keep_rate, expected, 0.01);
  // Target rows under-estimate: their true frequency here is 0, and
  // conditioning pushes the estimate below the unbiased value.
  const auto freqs = filter.Estimate();
  EXPECT_LT(freqs[0], 0.005);
}

// The fast sampled path matches exact per-user simulation in
// expectation for each protocol that has one.
class DetectionFastPathTest : public ::testing::TestWithParam<ProtocolKind> {};

TEST_P(DetectionFastPathTest, FastAndStreamingAgree) {
  const size_t d = 24;
  const auto proto = MakeProtocol(GetParam(), d, 0.8);
  const std::vector<ItemId> targets = {1, 5};
  std::vector<uint64_t> item_counts(d, 500);

  RunningStat fast_kept, slow_kept;
  RunningStat fast_f10, slow_f10;
  Rng rng(3);
  for (int trial = 0; trial < 30; ++trial) {
    DetectionFilter fast(*proto, targets);
    fast.OfferSampledGenuine(item_counts, rng);
    fast_kept.Add(static_cast<double>(fast.kept()));
    fast_f10.Add(fast.Estimate()[10]);

    DetectionFilter slow(*proto, targets);
    slow.OfferExactGenuine(item_counts, rng);
    slow_kept.Add(static_cast<double>(slow.kept()));
    slow_f10.Add(slow.Estimate()[10]);
  }
  const double n = 24.0 * 500.0;
  EXPECT_NEAR(fast_kept.mean() / n, slow_kept.mean() / n, 0.02);
  // Means over 30 independent trials; ~4 sigma of the trial-mean.
  EXPECT_NEAR(fast_f10.mean(), slow_f10.mean(), 0.018);
}

INSTANTIATE_TEST_SUITE_P(AllProtocols, DetectionFastPathTest,
                         ::testing::Values(ProtocolKind::kGrr,
                                           ProtocolKind::kOue,
                                           ProtocolKind::kOlh),
                         [](const auto& param_info) {
                           return std::string(ProtocolKindName(param_info.param));
                         });

TEST(DetectionFilterTest, EstimateNormalizesByKeptCount) {
  const size_t d = 16;
  const Grr grr(d, 1.0);
  Rng rng(4);
  DetectionFilter filter(grr, {0});
  // Genuine users all hold item 8 (never a target).
  std::vector<uint64_t> item_counts(d, 0);
  item_counts[8] = 30000;
  filter.OfferSampledGenuine(item_counts, rng);
  const auto freqs = filter.Estimate();
  // Conditioned on not reporting item 0, the kept fraction is 1 - q
  // and item 8's support rate renormalizes to p/(1-q); the adjusted
  // estimate is therefore biased to (p/(1-q) - q)/(p - q) > 1 — the
  // collateral-damage bias the paper attributes to Detection.
  const double p = grr.p(), q = grr.q();
  const double expected = (p / (1.0 - q) - q) / (p - q);
  EXPECT_GT(expected, 1.0);
  EXPECT_NEAR(freqs[8], expected, 0.03);
}

// Windowed streaming contract: ResetWindow must clear per-window
// state completely, so a filter that saw window A before the reset
// behaves on window B exactly like a fresh filter fed only window B —
// no kept-count leakage across the boundary — while the lifetime
// totals keep accumulating.
TEST(DetectionFilterTest, ResetWindowLeavesNoCrossWindowState) {
  const size_t d = 20;
  for (ProtocolKind kind :
       {ProtocolKind::kGrr, ProtocolKind::kOue, ProtocolKind::kOlh}) {
    const auto proto = MakeProtocol(kind, d, 0.8);
    const std::vector<ItemId> targets = {2, 7};

    // Window A: genuine reports plus a small MGA cohort (so some
    // reports are dropped and kept_counts_ accumulates mass).  Window
    // B: genuine reports from a disjoint item mix.
    Rng rng(11);
    ReportBatch window_a, window_b;
    {
      ReportBatch::Builder builder(window_a);
      for (ItemId item = 0; item < d; ++item)
        proto->AppendGenuineReports(item, 40, rng, builder);
      const MgaAttack attack(targets);
      attack.CraftBatch(*proto, 60, rng, builder);
    }
    {
      ReportBatch::Builder builder(window_b);
      for (ItemId item = 0; item < d / 2; ++item)
        proto->AppendGenuineReports(item, 50, rng, builder);
    }

    DetectionFilter streaming(*proto, targets);
    streaming.OfferAll(window_a);
    const size_t a_offered = streaming.offered();
    const size_t a_kept = streaming.kept();
    EXPECT_EQ(a_offered, window_a.size());
    EXPECT_LT(a_kept, a_offered) << ProtocolKindName(kind);

    streaming.ResetWindow();
    EXPECT_EQ(streaming.offered(), 0u);
    EXPECT_EQ(streaming.kept(), 0u);
    streaming.OfferAll(window_b);

    // A fresh filter that never saw window A.
    DetectionFilter fresh(*proto, targets);
    fresh.OfferAll(window_b);

    EXPECT_EQ(streaming.offered(), fresh.offered()) << ProtocolKindName(kind);
    EXPECT_EQ(streaming.kept(), fresh.kept()) << ProtocolKindName(kind);
    const auto streamed = streaming.Estimate();
    const auto expected = fresh.Estimate();
    for (size_t v = 0; v < d; ++v) {
      EXPECT_EQ(streamed[v], expected[v])
          << ProtocolKindName(kind) << " item " << v;
    }
  }
}

// A trial filters its crafted reports chunk by chunk while they are
// crafted (a filter on the targets of a targeted attack, absorbed
// later; the support counts or (seed, value) pairs of an untargeted
// one).  Over every attack x protocol, that gives what OfferAll on
// all m reports, built whole on the same Rng stream, gives.
TEST(DetectionFilterTest, ChunkedMaliciousReportsMatchOfferAll) {
  const size_t d = 31;
  // m = 10,000 crafted reports: two chunks or more on every protocol.
  const Dataset ds = MakeZipfDataset("z", d, 40000, 1.0, 7);
  for (ProtocolKind kind : kExtendedProtocolKinds) {
    const auto proto = MakeProtocol(kind, d, 1.0);
    for (AttackKind attack :
         {AttackKind::kMga, AttackKind::kMgaIpa, AttackKind::kManip,
          AttackKind::kAdaptive, AttackKind::kMultiAdaptive}) {
      const std::string what =
          std::string(AttackKindName(attack)) + " on " + ProtocolKindName(kind);
      PipelineConfig config;
      config.attack = attack;
      config.beta = 0.2;
      config.num_targets = 4;
      Rng rng(19);
      const TrialOutput t =
          RunPoisoningTrial(*proto, config, ds, rng, /*for_detection=*/true);
      ASSERT_GT(t.m, CraftChunkReports(*proto)) << what;
      // The same reports built whole: the trial draws its genuine seed
      // first, then crafts.
      Rng whole_rng(19);
      whole_rng.Next();
      ReportBatch whole;
      CraftMaliciousReports(*proto, config, t.m, whole_rng, whole);
      EXPECT_EQ(rng.Next(), whole_rng.Next()) << what;

      // Detection's item set: the targets of a targeted attack;
      // otherwise one item (the most-supported one, which the unary
      // single-item rule flags) or three.
      std::vector<std::vector<ItemId>> star_sets;
      if (!t.attack_targets.empty()) {
        star_sets.push_back(t.attack_targets);
      } else {
        const auto top = std::max_element(t.malicious_counts.begin(),
                                          t.malicious_counts.end());
        star_sets.push_back(
            {static_cast<ItemId>(top - t.malicious_counts.begin())});
        star_sets.push_back({2, 9, 17});
      }
      for (const std::vector<ItemId>& star : star_sets) {
        DetectionFilter chunked(*proto, star);
        OfferMaliciousReports(t, chunked);
        DetectionFilter reference(*proto, star);
        reference.OfferAll(whole);
        EXPECT_EQ(chunked.offered(), t.m) << what;
        EXPECT_EQ(chunked.offered(), reference.offered()) << what;
        EXPECT_EQ(chunked.kept(), reference.kept()) << what;
        if (star.size() == 1 && t.attack_targets.empty() &&
            kind != ProtocolKind::kOlh && kind != ProtocolKind::kBlh) {
          EXPECT_LT(reference.kept(), reference.offered()) << what;
        }
        if (reference.kept() > 0) {
          EXPECT_EQ(chunked.Estimate(), reference.Estimate()) << what;
        }
      }
    }
  }
}

TEST(DetectionFilterDeathTest, SingleItemCountsMustSumToTheReports) {
  const Oue oue(4, 0.5);
  DetectionFilter filter(oue, {1});
  filter.OfferSingleItemCounts({1, 2, 0, 3}, 6);
  EXPECT_EQ(filter.kept(), 4u);
  EXPECT_DEATH(filter.OfferSingleItemCounts({1, 2, 0, 3}, 7), "LDPR_CHECK");
}

TEST(DetectionFilterDeathTest, RejectsEmptyTargets) {
  const Grr grr(5, 0.5);
  EXPECT_DEATH(DetectionFilter(grr, {}), "LDPR_CHECK");
}

TEST(DetectionFilterDeathTest, EstimateRequiresKeptReports) {
  const Grr grr(5, 0.5);
  DetectionFilter filter(grr, {1});
  EXPECT_DEATH((void)filter.Estimate(), "LDPR_CHECK");
}

}  // namespace
}  // namespace ldpr
