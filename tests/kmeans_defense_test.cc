#include "recover/kmeans_defense.h"

#include <utility>

#include <gtest/gtest.h>

#include "attack/ipa.h"
#include "ldp/factory.h"
#include "ldp/grr.h"
#include "recover/ldprecover.h"
#include "recover/simplex_projection.h"
#include "util/math_util.h"
#include "util/metrics.h"

namespace ldpr {
namespace {

TEST(TwoMeansTest, SeparatesCleanClusters) {
  // Two well-separated blobs in 2D: the minority must be labelled 1.
  std::vector<std::vector<double>> rows;
  for (int i = 0; i < 8; ++i)
    rows.push_back({0.0 + 0.01 * i, 0.0});
  for (int i = 0; i < 3; ++i)
    rows.push_back({5.0 + 0.01 * i, 5.0});
  Rng rng(1);
  const auto labels = TwoMeansCluster(rows, rng);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(labels[i], 0);
  for (int i = 8; i < 11; ++i) EXPECT_EQ(labels[i], 1);
}

TEST(TwoMeansTest, MinorityIsAlwaysLabelOne) {
  std::vector<std::vector<double>> rows;
  for (int i = 0; i < 3; ++i) rows.push_back({0.0});
  for (int i = 0; i < 9; ++i) rows.push_back({10.0});
  Rng rng(2);
  const auto labels = TwoMeansCluster(rows, rng);
  size_t ones = 0;
  for (uint8_t l : labels) ones += l;
  EXPECT_EQ(ones, 3u);
}

// Builds an IPA-poisoned report set over a uniform population.
ReportBatch MakePoisonedReports(const FrequencyProtocol& proto, size_t n,
                                size_t m, const std::vector<ItemId>& targets,
                                Rng& rng) {
  ReportBatch reports;
  ReportBatch::Builder builder(reports);
  const size_t d = proto.domain_size();
  for (size_t i = 0; i < n; ++i)
    proto.AppendGenuineReports(static_cast<ItemId>(i % d), 1, rng, builder);
  MakeMgaIpa(d, targets)->CraftBatch(proto, m, rng, builder);
  return reports;
}

// The defense's aggregates are sums of its per-subset counts; they
// must equal aggregating the cluster members' reports directly.
TEST(KMeansDefenseTest, AggregatesMatchDirectAggregation) {
  for (ProtocolKind kind : kExtendedProtocolKinds) {
    const auto proto = MakeProtocol(kind, 12, 1.0);
    Rng gen(9);
    const ReportBatch reports =
        MakePoisonedReports(*proto, 9000, 2500, {0, 1}, gen);

    KMeansDefenseOptions opts;
    opts.sample_rate = 0.2;
    Rng rng(10), replay(10);
    const auto result = RunKMeansDefense(*proto, reports, opts, rng);

    // Replay the defense's shuffle and subset assignment.
    const size_t n = reports.size();
    std::vector<uint32_t> order(n);
    for (size_t i = 0; i < n; ++i) order[i] = static_cast<uint32_t>(i);
    for (size_t i = n; i > 1; --i)
      std::swap(order[i - 1], order[replay.UniformU64(i)]);
    ReportBatch genuine;
    for (size_t i = 0; i < n; ++i) {
      if (!result.subset_is_malicious[i % 5]) genuine.AppendFrom(reports, order[i]);
    }
    Aggregator direct(*proto);
    direct.AddAll(genuine);
    EXPECT_EQ(result.genuine_estimate, direct.EstimateFrequencies())
        << ProtocolKindName(kind);
  }
}

// The population counts stand in for aggregating every report (fig9's
// "Before", LDPRecover-KM's poisoned estimate), so they must match
// Aggregator::AddAll bit for bit.  At xi = 0.5 each subset holds more
// than kBatchFlushReports reports, so the tile flush runs too.
TEST(KMeansDefenseTest, PopulationCountsMatchAddAll) {
  for (ProtocolKind kind : kExtendedProtocolKinds) {
    const auto proto = MakeProtocol(kind, 12, 1.0);
    Rng gen(11);
    const ReportBatch reports =
        MakePoisonedReports(*proto, 7001, 1300, {0, 1}, gen);
    Aggregator all(*proto);
    all.AddAll(reports);
    for (double xi : {0.05, 0.1, 0.2, 0.3, 0.5}) {
      KMeansDefenseOptions opts;
      opts.sample_rate = xi;
      Rng rng(12);
      const KMeansPartition partition =
          PartitionSupportCounts(*proto, reports, opts, rng);
      size_t users = 0;
      for (size_t size : partition.subset_sizes) {
        EXPECT_LE(size, reports.size() / partition.subset_sizes.size() + 1);
        users += size;
      }
      EXPECT_EQ(users, reports.size());

      const auto result = RunKMeansDefense(*proto, partition, rng);
      EXPECT_EQ(result.population_counts, all.support_counts())
          << ProtocolKindName(kind) << " xi=" << xi;
      EXPECT_EQ(result.population_size, reports.size());
    }
  }
}

// LDPRecover-KM's poisoned estimate used to come from a separate
// Aggregator::AddAll over every report; reading it off the defense's
// population counts must not move a bit or an Rng draw.
TEST(LdpRecoverKmTest, MatchesSeparateFullAggregation) {
  for (ProtocolKind kind : kExtendedProtocolKinds) {
    const auto proto = MakeProtocol(kind, 12, 1.0);
    Rng gen(13);
    const ReportBatch reports =
        MakePoisonedReports(*proto, 6000, 1500, {0, 1}, gen);
    Aggregator all(*proto);
    all.AddAll(reports);
    const std::vector<double> poisoned = all.EstimateFrequencies();
    for (double xi : {0.1, 0.2, 0.5}) {
      KMeansDefenseOptions opts;
      opts.sample_rate = xi;
      Rng rng(14), replay(14);
      const std::vector<double> km =
          LdpRecoverKm(*proto, reports, opts, 0.2, rng);

      const auto defense = RunKMeansDefense(*proto, reports, opts, replay);
      std::vector<double> expected;
      if (defense.malicious_estimate.empty()) {
        expected = ProjectToSimplexKkt(poisoned);
      } else {
        RecoverOptions recover;
        recover.eta = 0.2;
        recover.malicious_freqs_override = defense.malicious_estimate;
        expected = LdpRecover(*proto, recover).Recover(poisoned);
      }
      EXPECT_EQ(km, expected) << ProtocolKindName(kind) << " xi=" << xi;
      EXPECT_EQ(rng.Next(), replay.Next()) << ProtocolKindName(kind);
    }
  }
}

TEST(KMeansDefenseTest, ProducesConsistentStructures) {
  const Grr grr(12, 1.0);
  Rng rng(3);
  const auto reports = MakePoisonedReports(grr, 6000, 600, {0}, rng);
  KMeansDefenseOptions opts;
  opts.sample_rate = 0.2;  // 5 disjoint subsets
  const auto result = RunKMeansDefense(grr, reports, opts, rng);
  EXPECT_EQ(result.subset_estimates.size(), 5u);
  EXPECT_EQ(result.subset_is_malicious.size(), 5u);
  EXPECT_EQ(result.genuine_estimate.size(), 12u);
  EXPECT_LE(result.malicious_subset_fraction, 0.5);
}

TEST(KMeansDefenseTest, GenuineEstimateTracksPopulation) {
  const size_t d = 10;
  const Grr grr(d, 1.0);
  Rng rng(4);
  const auto reports = MakePoisonedReports(grr, 20000, 1000, {3}, rng);
  KMeansDefenseOptions opts;
  const auto result = RunKMeansDefense(grr, reports, opts, rng);
  // Non-target items track the uniform population; the target (item
  // 3) retains the IPA inflation — the defense cannot remove bias
  // that is spread evenly across every subset.
  for (size_t v = 0; v < d; ++v) {
    if (v == 3) continue;
    EXPECT_NEAR(result.genuine_estimate[v], 0.1, 0.05);
  }
  EXPECT_GT(result.genuine_estimate[3], 0.1);
}

TEST(LdpRecoverKmTest, OutputOnSimplex) {
  const Grr grr(10, 1.0);
  Rng rng(5);
  const auto reports = MakePoisonedReports(grr, 10000, 800, {2}, rng);
  const auto recovered =
      LdpRecoverKm(grr, reports, KMeansDefenseOptions(), 0.1, rng);
  EXPECT_TRUE(IsProbabilityVector(recovered, 1e-8));
}

TEST(LdpRecoverKmTest, BeatsKMeansAloneUnderIpa) {
  // Figure 9's qualitative claim: LDPRecover-KM beats the plain
  // k-means defense (whose genuine-cluster estimate discards data and
  // keeps the IPA bias) and stays in the poisoned estimate's
  // ballpark, averaged over trials.
  const size_t d = 10;
  const Grr grr(d, 1.0);
  Rng rng(6);
  const size_t n = 20000, m = 3000;  // strong IPA
  std::vector<double> truth(d, 1.0 / d);

  RunningStat mse_km, mse_kmeans_alone, mse_poisoned;
  for (int trial = 0; trial < 8; ++trial) {
    const auto reports = MakePoisonedReports(grr, n, m, {0}, rng);
    Aggregator all(grr);
    all.AddAll(reports);
    mse_poisoned.Add(Mse(truth, all.EstimateFrequencies()));

    KMeansDefenseOptions opts;
    opts.sample_rate = 0.1;
    const auto defense = RunKMeansDefense(grr, reports, opts, rng);
    mse_kmeans_alone.Add(Mse(truth, defense.genuine_estimate));

    const auto recovered = LdpRecoverKm(grr, reports, opts, 0.2, rng);
    mse_km.Add(Mse(truth, recovered));
  }
  EXPECT_LT(mse_km.mean(), mse_kmeans_alone.mean());
  EXPECT_LT(mse_km.mean(), 1.5 * mse_poisoned.mean());
}

TEST(KMeansDefenseDeathTest, RejectsEmptyReports) {
  const Grr grr(5, 0.5);
  Rng rng(7);
  EXPECT_DEATH(
      RunKMeansDefense(grr, ReportBatch(), KMeansDefenseOptions(), rng),
      "LDPR_CHECK");
}

TEST(KMeansDefenseTest, AcceptsOneReportPerSubset) {
  const Grr grr(5, 0.5);
  Rng rng(15);
  ReportBatch reports;
  ReportBatch::Builder builder(reports);
  builder.AddValue(0);
  builder.AddValue(3);
  KMeansDefenseOptions opts;
  opts.sample_rate = 0.5;  // two subsets
  const auto result = RunKMeansDefense(grr, reports, opts, rng);
  EXPECT_EQ(result.subset_estimates.size(), 2u);
  EXPECT_EQ(result.population_size, 2u);
}

// With fewer reports than subsets some subset would be empty; the
// defense refuses at entry instead of failing inside estimation.
TEST(KMeansDefenseDeathTest, RejectsFewerReportsThanSubsets) {
  const Grr grr(5, 0.5);
  Rng rng(16);
  ReportBatch reports;
  ReportBatch::Builder builder(reports);
  builder.AddValue(0);
  KMeansDefenseOptions opts;
  opts.sample_rate = 0.5;
  EXPECT_DEATH(RunKMeansDefense(grr, reports, opts, rng), "n >= num_subsets");
}

TEST(KMeansDefenseDeathTest, RejectsBadSampleRate) {
  const Grr grr(5, 0.5);
  Rng rng(8);
  ReportBatch reports;
  ReportBatch::Builder builder(reports);
  for (int i = 0; i < 3; ++i) builder.AddValue(0);
  KMeansDefenseOptions opts;
  opts.sample_rate = 0.0;
  EXPECT_DEATH(RunKMeansDefense(grr, reports, opts, rng), "LDPR_CHECK");
}

}  // namespace
}  // namespace ldpr
