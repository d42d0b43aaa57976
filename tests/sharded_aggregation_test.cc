// The sharded-aggregation determinism contract (docs/architecture.md):
// every sharded path — closed-form sampling, per-user exact
// simulation, report-stream accumulation, whole trials, whole
// experiments — produces byte-identical output at any shard/thread
// count, because the chunk decomposition and the per-chunk RNG
// streams depend only on the population and the seed.

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "data/synthetic.h"
#include "ldp/factory.h"
#include "recover/detection.h"
#include "sim/experiment.h"
#include "sim/pipeline.h"
#include "util/random.h"

namespace ldpr {
namespace {

constexpr size_t kShardCounts[] = {1, 2, 8};

TEST(RestrictItemCountsTest, SplitsPartitionThePopulation) {
  const std::vector<uint64_t> item_counts = {5, 0, 3, 7, 1};
  const std::vector<uint64_t> all = RestrictItemCountsToUsers(item_counts, 0, 16);
  EXPECT_EQ(all, item_counts);

  // Any chunking of [0, 16) must recompose the histogram exactly.
  for (uint64_t chunk : {1u, 2u, 5u, 16u}) {
    std::vector<uint64_t> sum(item_counts.size(), 0);
    for (uint64_t begin = 0; begin < 16; begin += chunk) {
      const auto part = RestrictItemCountsToUsers(
          item_counts, begin, std::min<uint64_t>(16, begin + chunk));
      for (size_t v = 0; v < sum.size(); ++v) sum[v] += part[v];
    }
    EXPECT_EQ(sum, item_counts) << "chunk=" << chunk;
  }

  const auto mid = RestrictItemCountsToUsers(item_counts, 4, 9);
  EXPECT_EQ(mid, (std::vector<uint64_t>{1, 0, 3, 1, 0}));
  const auto empty = RestrictItemCountsToUsers(item_counts, 9, 9);
  EXPECT_EQ(empty, (std::vector<uint64_t>{0, 0, 0, 0, 0}));
}

// The acceptance bar of the sharded-aggregation change: a
// million-user population, sampled closed-form, is byte-identical at
// shards = 1 / 2 / 8 for every protocol the factory builds.
TEST(ShardedAggregationTest, MillionUserSampleIdenticalAcrossShardCounts) {
  const Dataset dataset = MakeZipfDataset("z", /*d=*/64, /*n=*/1000000,
                                          /*s=*/1.0, /*shuffle_seed=*/7);
  for (ProtocolKind kind : kExtendedProtocolKinds) {
    const auto protocol = MakeProtocol(kind, dataset.domain_size(), 0.5);
    const std::vector<double> reference =
        protocol->SampleSupportCountsSharded(dataset.item_counts, 99, 1);
    ASSERT_EQ(reference.size(), dataset.domain_size());
    for (size_t shards : kShardCounts) {
      const std::vector<double> counts =
          protocol->SampleSupportCountsSharded(dataset.item_counts, 99, shards);
      EXPECT_EQ(counts, reference)
          << ProtocolKindName(kind) << " shards=" << shards;
    }
  }
}

TEST(ShardedAggregationTest, RangeSamplersMatchRestrictedHistogram) {
  // Every protocol's range sampler must draw exactly what sampling
  // the whole restricted histogram draws (the decomposition the
  // sharded paths rely on).
  const Dataset dataset = MakeZipfDataset("z", /*d=*/32, /*n=*/150000,
                                          /*s=*/1.1, /*shuffle_seed=*/3);
  const uint64_t begin = 70000, end = 120000;
  for (ProtocolKind kind : kExtendedProtocolKinds) {
    const auto protocol = MakeProtocol(kind, dataset.domain_size(), 0.5);
    Rng rng_range(123), rng_default(123);
    const auto via_override = protocol->SampleSupportCountsRange(
        dataset.item_counts, begin, end, rng_range);
    const auto via_restrict = protocol->SampleSupportCounts(
        RestrictItemCountsToUsers(dataset.item_counts, begin, end),
        rng_default);
    EXPECT_EQ(via_override, via_restrict) << ProtocolKindName(kind);
  }
}

TEST(ShardedAggregationTest, ExactPerUserPathIdenticalAcrossShardCounts) {
  // Per-user exact simulation of a 1M-user GRR population (the
  // reference path) also shards deterministically.
  const Dataset dataset = MakeZipfDataset("z", /*d=*/48, /*n=*/1000000,
                                          /*s=*/1.0, /*shuffle_seed=*/11);
  const auto grr = MakeProtocol(ProtocolKind::kGrr, dataset.domain_size(), 0.5);
  const auto reference =
      ExactGenuineSupportCountsSharded(*grr, dataset.item_counts, 17, 1);
  double total = 0;
  for (double c : reference) total += c;
  EXPECT_DOUBLE_EQ(total, 1000000.0);  // every GRR report supports one item
  for (size_t shards : kShardCounts) {
    EXPECT_EQ(ExactGenuineSupportCountsSharded(*grr, dataset.item_counts, 17,
                                               shards),
              reference)
        << "shards=" << shards;
  }
}

TEST(ShardedAggregationTest, AddAllShardedMatchesAddAll) {
  const size_t d = 24;
  for (ProtocolKind kind : kExtendedProtocolKinds) {
    const auto protocol = MakeProtocol(kind, d, 0.5);
    Rng rng(5);
    ReportBatch reports;
    ReportBatch::Builder builder(reports);
    for (size_t i = 0; i < 20000; ++i)
      protocol->AppendGenuineReports(i % d, 1, rng, builder);

    Aggregator serial(*protocol);
    serial.AddAll(reports);
    for (size_t shards : kShardCounts) {
      Aggregator sharded(*protocol);
      sharded.AddAllSharded(reports, shards);
      EXPECT_EQ(sharded.support_counts(), serial.support_counts())
          << ProtocolKindName(kind) << " shards=" << shards;
      EXPECT_EQ(sharded.report_count(), serial.report_count());
    }
  }
}

TEST(ShardedAggregationTest, PoisoningTrialIdenticalAcrossShardCounts) {
  const Dataset dataset = MakeZipfDataset("z", /*d=*/40, /*n=*/200000,
                                          /*s=*/1.0, /*shuffle_seed=*/9);
  for (ProtocolKind kind : {ProtocolKind::kGrr, ProtocolKind::kOue,
                            ProtocolKind::kOlh}) {
    const auto protocol = MakeProtocol(kind, dataset.domain_size(), 0.5);
    PipelineConfig config;
    config.attack = AttackKind::kMga;
    config.beta = 0.05;

    config.shards = 1;
    Rng rng_serial(77);
    const TrialOutput serial =
        RunPoisoningTrial(*protocol, config, dataset, rng_serial);
    for (size_t shards : kShardCounts) {
      config.shards = shards;
      Rng rng(77);
      const TrialOutput t = RunPoisoningTrial(*protocol, config, dataset, rng);
      EXPECT_EQ(t.genuine_freqs, serial.genuine_freqs)
          << ProtocolKindName(kind) << " shards=" << shards;
      EXPECT_EQ(t.poisoned_freqs, serial.poisoned_freqs);
      EXPECT_EQ(t.malicious_freqs, serial.malicious_freqs);
      EXPECT_EQ(t.attack_targets, serial.attack_targets);
    }
  }
}

TEST(ShardedAggregationTest, ExperimentBudgetSplitDoesNotChangeResults) {
  // trials < threads routes budget into within-trial shards; the
  // metrics must not move.
  const Dataset dataset = MakeZipfDataset("z", /*d=*/32, /*n=*/120000,
                                          /*s=*/1.0, /*shuffle_seed=*/13);
  ExperimentConfig config;
  config.protocol = ProtocolKind::kOue;
  config.pipeline.attack = AttackKind::kAdaptive;
  config.trials = 2;
  config.seed = 4242;

  config.threads = 1;
  const ExperimentResult serial = RunExperiment(config, dataset);
  for (size_t threads : {2u, 8u}) {
    config.threads = threads;
    const ExperimentResult parallel = RunExperiment(config, dataset);
    EXPECT_EQ(parallel.mse_before.mean(), serial.mse_before.mean())
        << "threads=" << threads;
    EXPECT_EQ(parallel.mse_recover.mean(), serial.mse_recover.mean());
    EXPECT_EQ(parallel.fg_recover.mean(), serial.fg_recover.mean());
  }
}

TEST(ShardedAggregationTest, DetectionFilterIdenticalAcrossShardCounts) {
  // The sharded Detection fast path — the last per-trial aggregation
  // that used to stream serially (OLH/BLH) — must be byte-identical
  // at any shard count for every protocol the factory builds.
  const Dataset dataset = MakeZipfDataset("z", /*d=*/40, /*n=*/300000,
                                          /*s=*/1.0, /*shuffle_seed=*/9);
  const std::vector<ItemId> targets = {1, 5, 9, 13, 17, 21, 25, 29, 33, 37};
  for (ProtocolKind kind : kExtendedProtocolKinds) {
    const auto protocol = MakeProtocol(kind, dataset.domain_size(), 0.5);
    DetectionFilter reference(*protocol, targets);
    reference.OfferSampledGenuineSharded(dataset.item_counts, 41, 1);
    ASSERT_EQ(reference.offered(), dataset.num_users())
        << ProtocolKindName(kind);
    ASSERT_GT(reference.kept(), 0u) << ProtocolKindName(kind);
    ASSERT_LE(reference.kept(), reference.offered())
        << ProtocolKindName(kind);
    for (size_t shards : kShardCounts) {
      DetectionFilter filter(*protocol, targets);
      filter.OfferSampledGenuineSharded(dataset.item_counts, 41, shards);
      EXPECT_EQ(filter.offered(), reference.offered())
          << ProtocolKindName(kind) << " shards=" << shards;
      EXPECT_EQ(filter.kept(), reference.kept())
          << ProtocolKindName(kind) << " shards=" << shards;
      EXPECT_EQ(filter.Estimate(), reference.Estimate())
          << ProtocolKindName(kind) << " shards=" << shards;
    }
  }
}

TEST(ShardedAggregationTest, DetectionShardedEstimateIsSane) {
  // Sanity anchor for the sharded filter's law: with GRR the filter
  // only zeroes target rows, so non-target frequencies estimated from
  // the kept sample stay close to truth at n = 300k.
  const Dataset dataset = MakeZipfDataset("z", /*d=*/40, /*n=*/300000,
                                          /*s=*/1.0, /*shuffle_seed=*/9);
  const std::vector<double> truth = dataset.TrueFrequencies();
  const auto grr = MakeProtocol(ProtocolKind::kGrr, dataset.domain_size(), 0.5);
  DetectionFilter filter(*grr, {3});
  filter.OfferSampledGenuineSharded(dataset.item_counts, 43, 8);
  const std::vector<double> estimate = filter.Estimate();
  for (ItemId v : {ItemId(0), ItemId(7), ItemId(20)}) {
    EXPECT_NEAR(estimate[v], truth[v], 0.1) << "item " << v;
  }
}

}  // namespace
}  // namespace ldpr
