// Locks in the batched *generation* contract of this layer:
//
//  * AppendGenuineReports / SampleReportsBatch and every attack's
//    CraftBatch produce exactly the reports of the per-report oracle
//    (tests/report_oracle.h), drawing the same randomness in the same
//    order — so the caller's Rng stream position matches too;
//  * AppendGenuineReports(item, k) equals k calls of
//    AppendGenuineReports(item, 1) (the fig9 replay's per-user
//    adapter relies on it);
//  * one-report-at-a-time appends grow the batch geometrically;
//  * a flushing builder's chunks, joined in order, are one CraftBatch,
//    and a trial's chunks stay within kCraftChunkBytes;
//  * batch sizes straddling the kBatchFlushReports and
//    kReportsPerAggregationShard boundaries (8191/8192/8193) agree
//    across the unsharded and sharded aggregation routes;
//  * every SIMD kernel is bit-equal to its scalar reference on every
//    backend the running machine offers (SetSimdBackendForTest), and
//    MGA's OLH/BLH seed search over blocks of the seed stream matches
//    the serial oracle on each of them;
//  * the exact-arithmetic building blocks (FastMod, the AVX-512 vector
//    reduction and congruence test, the split 8-byte xxHash) match
//    their generic counterparts on extreme inputs.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "attack/adaptive.h"
#include "attack/attack.h"
#include "attack/ipa.h"
#include "attack/manip.h"
#include "attack/mga.h"
#include "attack/multi_attacker.h"
#include "ldp/blh.h"
#include "ldp/factory.h"
#include "ldp/olh.h"
#include "ldp/protocol.h"
#include "ldp/report_batch.h"
#include "recover/detection.h"
#include "report_oracle.h"
#include "sim/pipeline.h"
#include "util/hash_family.h"
#include "util/random.h"
#include "util/simd.h"
#include "util/xxhash.h"

namespace ldpr {
namespace {

void ExpectSameReports(const std::vector<Report>& actual,
                       const std::vector<Report>& expected,
                       const std::string& what) {
  ASSERT_EQ(actual.size(), expected.size()) << what;
  for (size_t i = 0; i < actual.size(); ++i) {
    EXPECT_EQ(actual[i].seed, expected[i].seed) << what << " report " << i;
    EXPECT_EQ(actual[i].value, expected[i].value) << what << " report " << i;
    EXPECT_EQ(actual[i].bits, expected[i].bits) << what << " report " << i;
  }
}

// A small synthetic population histogram with empty and heavy rows.
std::vector<uint64_t> MakeItemCounts(size_t d, uint64_t total) {
  std::vector<uint64_t> counts(d, 0);
  Rng rng(total + d);
  for (uint64_t u = 0; u < total; ++u)
    ++counts[static_cast<size_t>(rng.UniformU64(d))];
  counts[0] = 0;  // ensure an empty row
  return counts;
}

// Oracle reference: per-user Perturb in the canonical order (users
// grouped by item, items ascending).
std::vector<Report> PerturbPopulation(const FrequencyProtocol& proto,
                                      const std::vector<uint64_t>& item_counts,
                                      Rng& rng) {
  std::vector<Report> reports;
  for (ItemId item = 0; item < item_counts.size(); ++item) {
    for (uint64_t u = 0; u < item_counts[item]; ++u)
      reports.push_back(oracle::Perturb(proto, item, rng));
  }
  return reports;
}

TEST(ReportGenBatchTest, GenuineBuilderMatchesOracleForAllProtocols) {
  for (ProtocolKind kind : kExtendedProtocolKinds) {
    const auto proto = MakeProtocol(kind, /*d=*/37, /*epsilon=*/1.0);
    const std::vector<uint64_t> item_counts = MakeItemCounts(37, 523);

    Rng oracle_rng(41), builder_rng(41);
    const std::vector<Report> reports =
        PerturbPopulation(*proto, item_counts, oracle_rng);

    ReportBatch batch;
    ReportBatch::Builder builder(batch);
    proto->SampleReportsBatch(item_counts, builder_rng, builder);
    ExpectSameReports(UnpackReports(batch), reports, ProtocolKindName(kind));

    std::vector<double> batched(proto->domain_size(), 0.0);
    proto->AccumulateSupportsBatch(batch, batched);
    EXPECT_EQ(batched, oracle::SupportCounts(*proto, reports))
        << ProtocolKindName(kind);
    // Both streams must sit at the same position.
    EXPECT_EQ(oracle_rng.Next(), builder_rng.Next()) << ProtocolKindName(kind);
  }
}

TEST(ReportGenBatchTest, AppendKEqualsKSingleAppends) {
  for (ProtocolKind kind : kExtendedProtocolKinds) {
    const auto proto = MakeProtocol(kind, /*d=*/29, /*epsilon=*/0.7);
    Rng bulk_rng(5), single_rng(5);
    ReportBatch bulk, single;
    ReportBatch::Builder bulk_out(bulk), single_out(single);
    for (ItemId item : {ItemId(0), ItemId(11), ItemId(28)}) {
      proto->AppendGenuineReports(item, 300, bulk_rng, bulk_out);
      for (int u = 0; u < 300; ++u)
        proto->AppendGenuineReports(item, 1, single_rng, single_out);
    }
    ExpectSameReports(UnpackReports(single), UnpackReports(bulk),
                      ProtocolKindName(kind));
    EXPECT_EQ(bulk_rng.Next(), single_rng.Next()) << ProtocolKindName(kind);
  }
}

TEST(ReportGenBatchTest, CraftedReportMatchesOracle) {
  for (ProtocolKind kind : kExtendedProtocolKinds) {
    const auto proto = MakeProtocol(kind, /*d=*/23, /*epsilon=*/1.0);
    Rng oracle_rng(3), batch_rng(3);
    for (ItemId v = 0; v < 23; ++v) {
      const Report expected = oracle::CraftSupportingReport(*proto, v, oracle_rng);
      ExpectSameReports({CraftedReport(*proto, v, batch_rng)}, {expected},
                        ProtocolKindName(kind));
      EXPECT_TRUE(oracle::Supports(*proto, expected, v));
    }
    EXPECT_EQ(oracle_rng.Next(), batch_rng.Next()) << ProtocolKindName(kind);
  }
}

TEST(ReportGenBatchTest, ExactSupportCountsMatchesOracle) {
  for (ProtocolKind kind : kExtendedProtocolKinds) {
    const auto proto = MakeProtocol(kind, /*d=*/23, /*epsilon=*/0.8);
    const std::vector<uint64_t> item_counts = MakeItemCounts(23, 700);

    Rng oracle_rng(7), batch_rng(7);
    const std::vector<double> reference = oracle::SupportCounts(
        *proto, PerturbPopulation(*proto, item_counts, oracle_rng));
    EXPECT_EQ(proto->ExactSupportCounts(item_counts, batch_rng), reference)
        << ProtocolKindName(kind);
    EXPECT_EQ(oracle_rng.Next(), batch_rng.Next()) << ProtocolKindName(kind);
  }
}

// Runs one attack's CraftBatch and its per-report oracle on identical
// Rng streams and requires the same reports plus an identical stream
// position afterwards.  `label` names the attack in failure messages.
template <typename Oracle>
void ExpectCraftBatchMatchesOracle(const std::string& label,
                                   const Attack& attack,
                                   const FrequencyProtocol& proto, size_t m,
                                   uint64_t seed, const Oracle& craft) {
  Rng oracle_rng(seed), batch_rng(seed);
  const std::vector<Report> expected = craft(m, oracle_rng);
  const std::string what = label + " on " + ProtocolKindName(proto.kind());
  ExpectSameReports(CraftReports(attack, proto, m, batch_rng), expected, what);
  EXPECT_EQ(oracle_rng.Next(), batch_rng.Next()) << what;
}

TEST(ReportGenBatchTest, AttackCraftBatchMatchesOracleForAllProtocols) {
  for (ProtocolKind kind : kExtendedProtocolKinds) {
    const auto proto = MakeProtocol(kind, /*d=*/31, /*epsilon=*/1.0);
    const std::vector<ItemId> targets = {2, 9, 17, 30};
    ExpectCraftBatchMatchesOracle("MGA", MgaAttack(targets), *proto, 400, 13,
                                  [&](size_t m, Rng& rng) {
                                    return oracle::CraftMga(*proto, targets, m,
                                                            rng);
                                  });
    const auto ipa = MakeMgaIpa(31, targets);
    std::vector<double> ipa_inputs(31, 0.0);
    for (ItemId t : targets) ipa_inputs[t] = 1.0;
    ExpectCraftBatchMatchesOracle("MGA-IPA", *ipa, *proto, 400, 17,
                                  [&](size_t m, Rng& rng) {
                                    return oracle::CraftIpa(*proto, ipa_inputs,
                                                            m, rng);
                                  });
    ExpectCraftBatchMatchesOracle("Manip", ManipAttack(), *proto, 400, 19,
                                  [&](size_t m, Rng& rng) {
                                    return oracle::CraftManip(*proto, m, rng);
                                  });
    ExpectCraftBatchMatchesOracle("AA", AdaptiveAttack(), *proto, 400, 23,
                                  [&](size_t m, Rng& rng) {
                                    return oracle::CraftAdaptive(*proto, m,
                                                                 rng);
                                  });
    ExpectCraftBatchMatchesOracle(
        "MUL-AA", *MakeMultiAdaptive(), *proto, 400, 29,
        [&](size_t m, Rng& rng) {
          return oracle::CraftMultiAdaptive(*proto, m, rng);
        });
  }
}

// The AoS adapters the fig9 replay (perf/src/replay.cc) calls must
// stay equal to the batch paths they wrap.
TEST(ReportGenBatchTest, AosAdaptersMatchBatchPaths) {
  for (ProtocolKind kind : kExtendedProtocolKinds) {
    const auto proto = MakeProtocol(kind, /*d=*/19, /*epsilon=*/1.0);
    Rng adapter_rng(31), batch_rng(31);
    std::vector<Report> perturbed;
    for (ItemId v = 0; v < 19; ++v)
      perturbed.push_back(proto->Perturb(v, adapter_rng));
    std::vector<Report> expected;
    for (ItemId v = 0; v < 19; ++v)
      expected.push_back(GenuineReport(*proto, v, batch_rng));
    ExpectSameReports(perturbed, expected, ProtocolKindName(kind));

    const MgaAttack mga({1, 4, 7});
    ExpectSameReports(mga.Craft(*proto, 50, adapter_rng),
                      CraftReports(mga, *proto, 50, batch_rng),
                      ProtocolKindName(kind));
    EXPECT_EQ(adapter_rng.Next(), batch_rng.Next()) << ProtocolKindName(kind);

    ReportBatch appended;
    for (const Report& r : perturbed) appended.Append(r);
    ExpectSameReports(UnpackReports(appended), perturbed,
                      ProtocolKindName(kind));
    Report extracted;
    appended.ExtractReport(3, extracted);
    ExpectSameReports({extracted}, {perturbed[3]}, ProtocolKindName(kind));
  }
}

// Guard against quadratic batch growth: appending m reports one at a
// time (the IPA crafting and stream-arrival pattern) may move each
// SoA array only O(log m) times.
size_t MaxReallocations(size_t m) {
  return 2 * static_cast<size_t>(std::ceil(std::log2(static_cast<double>(m)))) +
         4;
}

struct PointerMoves {
  const void* last = nullptr;
  size_t moves = 0;
  void Observe(const void* p) {
    if (p != last) ++moves;
    last = p;
  }
};

TEST(ReportBatchGrowthTest, SingleReportAppendsGrowGeometrically) {
  const size_t m = 100000;
  for (ProtocolKind kind : kExtendedProtocolKinds) {
    const auto proto = MakeProtocol(kind, /*d=*/8, /*epsilon=*/1.0);
    const bool unary = oracle::IsUnary(*proto);
    const auto ipa = MakeMgaIpa(8, {1, 5});
    for (int route = 0; route < 2; ++route) {
      Rng rng(7);
      ReportBatch batch;
      ReportBatch::Builder builder(batch);
      PointerMoves seeds, bits;
      for (size_t i = 0; i < m; ++i) {
        if (route == 0) {
          proto->AppendGenuineReports(static_cast<ItemId>(i % 8), 1, rng,
                                      builder);
        } else {
          ipa->CraftBatch(*proto, 1, rng, builder);
        }
        seeds.Observe(batch.seeds());
        if (unary) bits.Observe(batch.bits());
      }
      ASSERT_EQ(batch.size(), m);
      const char* name = route == 0 ? "AppendGenuineReports" : "IPA CraftBatch";
      EXPECT_LE(seeds.moves, MaxReallocations(m))
          << ProtocolKindName(kind) << " " << name;
      if (unary) {
        EXPECT_LE(bits.moves, MaxReallocations(m))
            << ProtocolKindName(kind) << " " << name;
      }
    }
  }
}

// Every attack of the trial grid, on a d-item domain, by name.
std::vector<std::pair<std::string, std::unique_ptr<Attack>>> GridAttacks(
    size_t d) {
  const std::vector<ItemId> targets = {2, 9, 17, static_cast<ItemId>(d - 1)};
  std::vector<std::pair<std::string, std::unique_ptr<Attack>>> attacks;
  attacks.emplace_back("MGA", std::make_unique<MgaAttack>(targets));
  attacks.emplace_back("MGA-IPA", MakeMgaIpa(d, targets));
  attacks.emplace_back("Manip", std::make_unique<ManipAttack>());
  attacks.emplace_back("AA", std::make_unique<AdaptiveAttack>());
  attacks.emplace_back("MUL-AA", MakeMultiAdaptive());
  return attacks;
}

TEST(ReportGenBatchTest, FlushingBuilderChunksJoinToOneCraftBatch) {
  const size_t m = 400;
  for (ProtocolKind kind : kExtendedProtocolKinds) {
    const auto proto = MakeProtocol(kind, /*d=*/31, /*epsilon=*/1.0);
    for (const auto& [name, attack] : GridAttacks(31)) {
      for (size_t bound : {size_t{1}, size_t{7}, m, m + 1}) {
        const std::string what = name + " on " + ProtocolKindName(kind) +
                                 " bound=" + std::to_string(bound);
        Rng whole_rng(53), chunked_rng(53);
        const std::vector<Report> whole =
            CraftReports(*attack, *proto, m, whole_rng);

        std::vector<Report> joined;
        std::vector<size_t> sizes;
        ReportBatch chunk;
        ReportBatch::Builder builder(chunk, bound,
                                     [&](const ReportBatch& reports) {
                                       sizes.push_back(reports.size());
                                       for (Report& r : UnpackReports(reports))
                                         joined.push_back(std::move(r));
                                     });
        builder.Reserve(std::min(m, bound));
        attack->CraftBatch(*proto, m, chunked_rng, builder);
        builder.Flush();
        EXPECT_TRUE(chunk.empty()) << what;
        builder.Flush();  // nothing left: no empty chunk is handed over

        ExpectSameReports(joined, whole, what);
        EXPECT_EQ(whole_rng.Next(), chunked_rng.Next()) << what;
        // Every chunk but the last is full.
        ASSERT_EQ(sizes.size(), (m + bound - 1) / bound) << what;
        for (size_t c = 0; c + 1 < sizes.size(); ++c)
          EXPECT_EQ(sizes[c], bound) << what << " chunk " << c;
      }
    }
  }
}

// The memory guard of a trial's crafted reports: at the chunk size
// RunPoisoningTrial uses, no chunk the consumer sees is over
// kCraftChunkBytes unless it holds at most kMinCraftChunkReports
// reports, and the one up-front reservation is never regrown (MGA
// reserves all m reports and IPA one report at a time; a flushing
// builder caps both).
TEST(ReportGenBatchTest, CraftChunksStayWithinTheByteBound) {
  for (ProtocolKind kind : kExtendedProtocolKinds) {
    for (size_t d : {size_t{31}, size_t{700}, size_t{70000}}) {
      const auto proto = MakeProtocol(kind, d, /*epsilon=*/1.0);
      const size_t bound = CraftChunkReports(*proto);
      EXPECT_GE(bound, kMinCraftChunkReports);
      EXPECT_LE(bound, kReportsPerAggregationShard);
      const size_t m = 2 * bound + 3;
      for (const auto& [name, attack] : GridAttacks(d)) {
        const std::string what = name + " on " + ProtocolKindName(kind) +
                                 " d=" + std::to_string(d);
        Rng rng(61);
        size_t crafted = 0;
        PointerMoves seeds, bits;
        ReportBatch chunk;
        ReportBatch::Builder builder(
            chunk, bound, [&](const ReportBatch& reports) {
              crafted += reports.size();
              const size_t bytes =
                  reports.size() * (sizeof(uint64_t) + sizeof(uint32_t) +
                                    reports.bits_width());
              EXPECT_TRUE(reports.size() <= kMinCraftChunkReports ||
                          bytes <= kCraftChunkBytes)
                  << what << ": " << reports.size() << " reports, " << bytes
                  << " bytes";
              seeds.Observe(reports.seeds());
              if (reports.bits_width() > 0) bits.Observe(reports.bits());
            });
        builder.Reserve(std::min(m, bound));
        seeds.Observe(chunk.seeds());
        attack->CraftBatch(*proto, m, rng, builder);
        builder.Flush();
        EXPECT_EQ(crafted, m) << what;
        EXPECT_EQ(seeds.moves, 1u) << what;
        EXPECT_LE(bits.moves, 1u) << what;
      }
    }
  }
}

TEST(ReportGenBatchTest, BuilderBatchesAgreeAcrossShardChunkBoundaries) {
  // 8191/8192/8193 straddle both kReportsPerAggregationShard (8192)
  // and multiples of kBatchFlushReports (4096).
  static_assert(kReportsPerAggregationShard == 8192,
                "sizes below straddle the shard chunk size");
  for (ProtocolKind kind : {ProtocolKind::kGrr, ProtocolKind::kOue,
                            ProtocolKind::kOlh}) {
    const auto proto = MakeProtocol(kind, /*d=*/19, /*epsilon=*/1.0);
    for (size_t m : {size_t{8191}, size_t{8192}, size_t{8193}}) {
      Rng rng(m);
      const MgaAttack mga(MgaAttack::SampleTargets(19, 4, rng));
      ReportBatch batch;
      ReportBatch::Builder builder(batch);
      mga.CraftBatch(*proto, m, rng, builder);

      Aggregator unsharded(*proto);
      unsharded.AddAll(batch);
      for (size_t shards : {size_t{1}, size_t{3}}) {
        Aggregator sharded(*proto);
        sharded.AddAllSharded(batch, shards);
        EXPECT_EQ(sharded.support_counts(), unsharded.support_counts())
            << ProtocolKindName(kind) << " m=" << m << " shards=" << shards;
        EXPECT_EQ(sharded.report_count(), m);
      }
    }
  }
}

TEST(ReportGenBatchTest, DetectionExactGenuineMatchesOracleFilter) {
  for (ProtocolKind kind : kExtendedProtocolKinds) {
    const auto proto = MakeProtocol(kind, /*d=*/29, /*epsilon=*/1.0);
    const std::vector<ItemId> targets = {3, 11, 20};
    const std::vector<uint64_t> item_counts = MakeItemCounts(29, 600);

    Rng oracle_rng(3), batch_rng(3);
    DetectionFilter batched(*proto, targets);
    const std::vector<Report> survivors = oracle::DetectionSurvivors(
        *proto, targets, batched.threshold(),
        PerturbPopulation(*proto, item_counts, oracle_rng));
    batched.OfferExactGenuine(item_counts, batch_rng);

    uint64_t users = 0;
    for (uint64_t c : item_counts) users += c;
    EXPECT_EQ(batched.offered(), users) << ProtocolKindName(kind);
    EXPECT_EQ(batched.kept(), survivors.size()) << ProtocolKindName(kind);
    ASSERT_GT(batched.kept(), 0u) << ProtocolKindName(kind);
    EXPECT_EQ(batched.Estimate(),
              proto->EstimateFrequencies(
                  oracle::SupportCounts(*proto, survivors), survivors.size()))
        << ProtocolKindName(kind);
    EXPECT_EQ(oracle_rng.Next(), batch_rng.Next()) << ProtocolKindName(kind);
  }
}

// ------------------------------------------------------------------
// SIMD kernels: every backend available on this machine must be
// bit-equal to the scalar reference on every kernel.

std::vector<SimdBackend> TestableBackends() {
  std::vector<SimdBackend> backends;
  for (SimdBackend backend :
       {SimdBackend::kScalar, SimdBackend::kPortable, SimdBackend::kAvx512}) {
    if (SimdBackendAvailable(backend)) backends.push_back(backend);
  }
  return backends;
}

class ScopedBackend {
 public:
  explicit ScopedBackend(SimdBackend backend) {
    SetSimdBackendForTest(backend);
  }
  ~ScopedBackend() { ClearSimdBackendForTest(); }
};

TEST(SimdKernelTest, UnaryColumnsMatchScalarAcrossBackends) {
  Rng rng(101);
  // d = 7 and 24 stay below one 32-byte vector; 4096 is scaling_d's
  // top.
  for (size_t d : {size_t{7}, size_t{24}, size_t{64}, size_t{100},
                   size_t{4096}}) {
    // Sizes around the 255-row byte-lane sub-tile and vector widths.
    for (size_t n : {size_t{0}, size_t{1}, size_t{254}, size_t{255},
                     size_t{256}, size_t{1000}}) {
      // Every nonzero byte (1..255) must count as one, as the scalar
      // `row[v] != 0` does.
      std::vector<uint8_t> rows(n * d);
      for (uint8_t& b : rows) {
        b = rng.Bernoulli(0.3) ? static_cast<uint8_t>(1 + rng.UniformU64(255))
                               : 0;
      }

      std::vector<uint32_t> reference(d, 5);  // nonzero carry-in
      {
        ScopedBackend scalar(SimdBackend::kScalar);
        SimdUnaryColumnsAddPacked(rows.data(), n, d, reference.data());
      }
      for (SimdBackend backend : TestableBackends()) {
        ScopedBackend scoped(backend);
        std::vector<uint32_t> packed(d, 5);
        SimdUnaryColumnsAddPacked(rows.data(), n, d, packed.data());
        EXPECT_EQ(packed, reference)
            << SimdBackendName(backend) << " packed n=" << n << " d=" << d;
      }
    }
  }
}

TEST(SimdKernelTest, ValueHistogramMatchesScalarAcrossBackends) {
  Rng rng(202);
  const size_t d = 50;
  for (size_t n : {size_t{0}, size_t{1}, size_t{3}, size_t{4}, size_t{5},
                   size_t{10007}}) {
    std::vector<uint32_t> values(n);
    for (uint32_t& v : values) v = static_cast<uint32_t>(rng.UniformU64(d));
    std::vector<uint64_t> reference(d, 2);  // nonzero carry-in
    {
      ScopedBackend scalar(SimdBackend::kScalar);
      SimdValueHistogramAdd(values.data(), n, d, reference.data());
    }
    for (SimdBackend backend : TestableBackends()) {
      ScopedBackend scoped(backend);
      std::vector<uint64_t> hist(d, 2);
      SimdValueHistogramAdd(values.data(), n, d, hist.data());
      EXPECT_EQ(hist, reference) << SimdBackendName(backend) << " n=" << n;
    }
  }
}

TEST(SimdKernelTest, ScalarAndActiveBackendsAreTestable) {
  const std::vector<SimdBackend> backends = TestableBackends();
  ASSERT_FALSE(backends.empty());
  EXPECT_EQ(backends.front(), SimdBackend::kScalar);
  EXPECT_NE(std::find(backends.begin(), backends.end(), SimdBackend::kPortable),
            backends.end());
  EXPECT_NE(std::find(backends.begin(), backends.end(), ActiveSimdBackend()),
            backends.end());
  // Every kernel test above passes on kPortable too, so only this pins
  // dispatch to the AVX-512 local hashing wherever the CPU has it.
  if (std::getenv("LDPR_FORCE_SCALAR") == nullptr) {
    EXPECT_EQ(ActiveSimdBackend(),
              SimdBackendAvailable(SimdBackend::kAvx512)
                  ? SimdBackend::kAvx512
                  : SimdBackend::kPortable);
  }
}

TEST(SimdKernelTest, OlhSupportMatchesScalarAcrossBackends) {
  Rng rng(303);
  const size_t d = 33;
  // Power-of-two g (a mask) and the AVX-512 congruence test over the
  // whole 32-bit range of g (FastMod on portable); n around the 8-lane
  // vector and the 256-report tile.
  for (uint32_t g : {2u, 3u, 4u, 6u, 7u, 9u, 150u, (1u << 21) - 1,
                     (1u << 21) + 1, 3u << 30, (1u << 31) + 1,
                     0xffffffffu}) {
    for (size_t n : {size_t{0}, size_t{1}, size_t{7}, size_t{8}, size_t{9},
                     size_t{255}, size_t{256}, size_t{257}, size_t{1000}}) {
      std::vector<uint64_t> seeds(n);
      std::vector<uint32_t> values(n);
      for (size_t i = 0; i < n; ++i) {
        seeds[i] = rng.Next();
        // Half the reports support a real item, so large g still
        // produces matches.
        values[i] = (i % 2 == 0)
                        ? SeededHash(seeds[i], g)(static_cast<uint64_t>(i % d))
                        : static_cast<uint32_t>(rng.UniformU64(g));
      }
      std::vector<double> reference(d, 1.0);  // nonzero carry-in
      {
        ScopedBackend scalar(SimdBackend::kScalar);
        SimdOlhSupportAdd(seeds.data(), values.data(), n, d, g,
                          reference.data());
      }
      for (SimdBackend backend : TestableBackends()) {
        ScopedBackend scoped(backend);
        std::vector<double> counts(d, 1.0);
        SimdOlhSupportAdd(seeds.data(), values.data(), n, d, g, counts.data());
        EXPECT_EQ(counts, reference)
            << SimdBackendName(backend) << " g=" << g << " n=" << n;
      }
    }
  }
}

// A seed whose XXH64(item, seed) is h.  The 8-byte xxHash finish is a
// bijection of the seed accumulator: undo each xorshift, multiply by
// the inverse of each odd prime, rotate back, then xor out the item's
// round.
uint64_t SeedHashingTo(uint64_t item, uint64_t h) {
  using namespace xxhash_detail;
  const auto inverse = [](uint64_t odd) {
    uint64_t inv = odd;
    for (int i = 0; i < 5; ++i) inv *= 2 - odd * inv;
    return inv;
  };
  const auto unxorshift = [](uint64_t y, int shift) {
    uint64_t x = y;
    for (int i = 0; i <= 64 / shift; ++i) x = y ^ (x >> shift);
    return x;
  };
  uint64_t x = unxorshift(h, 32) * inverse(kPrime3);
  x = unxorshift(x, 29) * inverse(kPrime2);
  x = unxorshift(x, 33);
  x = Rotl64((x - kPrime4) * inverse(kPrime1), 64 - 27);
  return (x ^ XxHash64Round0(item)) - XxHash64SeedAcc(0);
}

// On AVX-512, support counting tests h ≡ b (mod g) on the 64-bit hash h
// without reducing it (util/simd.cc).  Seeds built to hash a chosen
// item to each edge of that test — h below b, h around b, g and its
// multiples, the top of the 64-bit range — sit in the tail lanes
// (n % 8 = 1..7) of a tile, on both items of a pair and on the odd last
// item.  A bucket b = g, which no hash reaches, must never count.
TEST(SimdKernelTest, OlhSupportMatchesScalarAtCongruenceEdges) {
  constexpr size_t kVectorLanes = 8;  // reports per AVX-512 vector
  const uint64_t max64 = ~uint64_t{0};
  constexpr size_t kD = 5;
  Rng rng(707);
  for (uint32_t g : {3u, 6u, 12u, (1u << 21) + 1, 3u << 30, (1u << 31) + 1,
                     0xffffffffu}) {
    std::vector<uint64_t> edge_seeds;
    std::vector<uint32_t> edge_values;
    for (uint64_t b : {uint64_t{0}, uint64_t{1}, uint64_t{g / 2},
                       uint64_t{g - 1}, uint64_t{g}}) {
      const uint64_t k = (max64 - b) / g;  // the largest k·g + b
      for (uint64_t h : {uint64_t{0}, uint64_t{1}, b - 1, b, b + 1,
                         uint64_t{g} - 1, uint64_t{g}, 2 * uint64_t{g},
                         2 * uint64_t{g} + b, k * g, k * g + b, max64,
                         max64 - g + 1}) {
        const uint64_t item = edge_seeds.size() % kD;
        edge_seeds.push_back(SeedHashingTo(item, h));
        ASSERT_EQ(XxHash64(item, edge_seeds.back()), h);
        edge_values.push_back(static_cast<uint32_t>(b));
      }
    }
    // One whole vector of random reports, then t edge reports.
    for (size_t t = 1; t < kVectorLanes; ++t) {
      for (size_t e0 = 0; e0 < edge_seeds.size(); e0 += t) {
        std::vector<uint64_t> seeds;
        std::vector<uint32_t> values;
        for (size_t i = 0; i < kVectorLanes; ++i) {
          seeds.push_back(rng.Next());
          values.push_back(static_cast<uint32_t>(rng.UniformU64(g)));
        }
        const size_t e1 = std::min(e0 + t, edge_seeds.size());
        seeds.insert(seeds.end(), edge_seeds.begin() + e0,
                     edge_seeds.begin() + e1);
        values.insert(values.end(), edge_values.begin() + e0,
                      edge_values.begin() + e1);
        std::vector<double> reference(kD, 0.0);
        {
          ScopedBackend scalar(SimdBackend::kScalar);
          SimdOlhSupportAdd(seeds.data(), values.data(), seeds.size(), kD, g,
                            reference.data());
        }
        for (SimdBackend backend : TestableBackends()) {
          ScopedBackend scoped(backend);
          std::vector<double> counts(kD, 0.0);
          SimdOlhSupportAdd(seeds.data(), values.data(), seeds.size(), kD, g,
                            counts.data());
          EXPECT_EQ(counts, reference) << SimdBackendName(backend) << " g="
                                       << g << " edges [" << e0 << ", " << e1
                                       << ")";
        }
      }
    }
  }
}

// LocalHashBlock::MaxLoads against the count table the serial search
// builds per seed (std::max_element: the lowest fullest bucket), on
// every backend: seed counts that end the AVX-512 routine's 16-seed
// passes full, in one lane, and below, at and past one 8-seed half; r
// across one and several 32-target tiles; and g on both sides of that
// routine's limit (64), powers of two and not.
TEST(SimdKernelTest, MaxLoadsMatchCountTableOnGrid) {
  constexpr size_t kD = 211;
  Rng rng(4242);
  for (uint32_t g : {2u, 3u, 4u, 7u, 9u, 63u, 64u, 65u, 150u}) {
    for (size_t r : {size_t{1}, size_t{2}, size_t{7}, size_t{31},
                     size_t{32}, size_t{33}, size_t{64}, size_t{65},
                     size_t{200}}) {
      const std::vector<ItemId> items = SampleWithoutReplacement(kD, r, rng);
      for (size_t n : {size_t{1}, size_t{7}, size_t{8}, size_t{9},
                       size_t{16}, size_t{17}, size_t{23}, size_t{64}}) {
        std::vector<uint64_t> seeds(n);
        for (uint64_t& seed : seeds) seed = rng.Next();
        std::vector<uint32_t> want_hits(n), want_first(n);
        std::vector<uint32_t> counts(g);
        for (size_t i = 0; i < n; ++i) {
          std::fill(counts.begin(), counts.end(), 0u);
          for (ItemId v : items) ++counts[SeededHash(seeds[i], g)(v)];
          const auto it = std::max_element(counts.begin(), counts.end());
          want_hits[i] = *it;
          want_first[i] = static_cast<uint32_t>(it - counts.begin());
        }
        for (SimdBackend backend : TestableBackends()) {
          ScopedBackend scoped(backend);
          const LocalHashBlock hashes(items.data(), r, g);
          std::vector<uint32_t> hits(n), first(n);
          hashes.MaxLoads(seeds.data(), n, hits.data(), first.data());
          const std::string what = std::string(SimdBackendName(backend)) +
                                   " g=" + std::to_string(g) +
                                   " r=" + std::to_string(r) +
                                   " n=" + std::to_string(n);
          EXPECT_EQ(hits, want_hits) << what;
          EXPECT_EQ(first, want_first) << what;
        }
      }
    }
  }
}

// MGA's OLH/BLH seed search maps MaxLoads over blocks of the seed
// stream and scans them in order (attack/mga.cc).  On every backend it
// must pick the serial oracle's seeds and buckets and leave the Rng
// where the oracle does: searches that stop early, searches that use
// all kMgaOlhSeedTries tries, every max-load path (mask,
// compare-counted and scatter-counted g) and r spanning several
// target tiles.  The shard-count and block-boundary cases are in
// mga_search_test.cc.
TEST(SimdKernelTest, MgaSeedSearchMatchesOracleOnGrid) {
  constexpr size_t kD = 211;
  constexpr size_t kReports = 24;
  std::vector<std::unique_ptr<OlhBase>> protocols;
  for (uint32_t g : {2u, 3u, 5u, 8u, 9u, 17u, 150u})
    protocols.push_back(std::make_unique<Olh>(kD, 1.0, g));
  protocols.push_back(std::make_unique<Blh>(kD, 1.0));
  bool stopped_early = false;
  bool used_every_try = false;
  for (const auto& proto : protocols) {
    for (size_t r : {size_t{1}, size_t{2}, size_t{10}, size_t{200}}) {
      Rng target_rng(r);
      const std::vector<ItemId> targets =
          MgaAttack::SampleTargets(kD, r, target_rng);
      const MgaAttack attack(targets);
      const uint64_t seed = 1000 * r + 10 * kMgaOlhSeedTries + proto->g();
      Rng oracle_rng(seed);
      std::vector<Report> expected;
      for (size_t i = 0; i < kReports; ++i) {
        size_t used = 0;
        expected.push_back(
            oracle::CraftMgaOlh(*proto, targets, oracle_rng, &used));
        if (used < kMgaOlhSeedTries) stopped_early = true;
        if (used == kMgaOlhSeedTries) used_every_try = true;
      }
      for (SimdBackend backend : TestableBackends()) {
        ScopedBackend scoped(backend);
        const std::string what = std::string(ProtocolKindName(proto->kind())) +
                                 " g=" +
                                 std::to_string(proto->g()) +
                                 " r=" + std::to_string(r) + " " +
                                 SimdBackendName(backend);
        Rng batch_rng(seed);
        ExpectSameReports(CraftReports(attack, *proto, kReports, batch_rng),
                          expected, what);
        Rng oracle_after = oracle_rng;
        EXPECT_EQ(oracle_after.Next(), batch_rng.Next()) << what;
      }
    }
  }
  EXPECT_TRUE(stopped_early);
  EXPECT_TRUE(used_every_try);
}

// ------------------------------------------------------------------
// Exact-arithmetic building blocks.

TEST(FastModTest, MatchesModuloOnExtremesAndRandomInputs) {
  Rng rng(404);
  const uint64_t max64 = ~uint64_t{0};
  for (uint64_t g : {uint64_t{1}, uint64_t{2}, uint64_t{3}, uint64_t{4},
                     uint64_t{5}, uint64_t{7}, uint64_t{8}, uint64_t{1023},
                     uint64_t{1024}, uint64_t{1} << 31,
                     (uint64_t{1} << 31) + 1, (uint64_t{1} << 63) - 25,
                     uint64_t{1} << 63, max64}) {
    const FastMod mod(g);
    EXPECT_EQ(mod.divisor(), g);
    for (uint64_t x : {uint64_t{0}, uint64_t{1}, g - 1, g, g + 1, max64 - 1,
                       max64}) {
      EXPECT_EQ(mod(x), x % g) << "g=" << g << " x=" << x;
    }
    for (int i = 0; i < 1000; ++i) {
      const uint64_t x = rng.Next();
      EXPECT_EQ(mod(x), x % g) << "g=" << g << " x=" << x;
    }
  }
}

// An x whose AVX-512 fold hi·(2^32 mod g) + lo (the `y` of the exact
// reduction in util/simd.cc) equals y, if one exists.
std::optional<uint64_t> WithFold(uint32_t g, uint64_t y) {
  const uint64_t c = (uint64_t{1} << 32) % g;
  const uint64_t hi = c == 0 ? 0 : std::min<uint64_t>(y / c, 0xffffffff);
  const uint64_t lo = y - hi * c;
  if (lo > 0xffffffff) return std::nullopt;
  return (hi << 32) | lo;
}

// The reduction behind the local-hashing kernels (on AVX-512 the exact
// double-precision `mod g` of util/simd.cc) at the edges of its proof:
// multiples of g and their predecessors, both as x and as the folded
// y (up to the largest y a g can reach, where the quotient estimate
// errs), multiples of 2^32 (lo = 0), all-ones halves, and g
// straddling the 2^21 limit.  g = 49 drives the quotient estimate
// one low (y = g); g = 2096612 drives it one high near the top.
TEST(SimdKernelTest, ReduceModMatchesModuloAtEdges) {
  const uint64_t max64 = ~uint64_t{0};
  Rng rng(606);
  for (uint32_t g : {1u, 2u, 3u, 5u, 6u, 7u, 9u, 49u, 150u, 1000u, 65535u,
                     65536u, 65537u, (1u << 20) + 7, 2096612u, (1u << 21) - 1,
                     1u << 21, (1u << 21) + 1, 4294967291u}) {
    std::vector<uint64_t> x = {0, 1, max64, max64 - 1, max64 - g};
    for (uint64_t k : {uint64_t{1}, uint64_t{2}, uint64_t{1} << 31,
                       uint64_t{1} << 32, (uint64_t{1} << 32) + 1,
                       max64 / g - 1, max64 / g}) {
      x.push_back(k * g - 1);
      x.push_back(k * g);
    }
    for (uint64_t c : {uint64_t{1}, uint64_t{2}, uint64_t{3},
                       uint64_t{0xffffffff}, uint64_t{1} << 31}) {
      x.push_back(c << 32);
      x.push_back((c << 32) - 1);
      x.push_back((c << 32) | 0xffffffff);
    }
    const uint64_t y_top = 0xffffffff * ((uint64_t{1} << 32) % g + 1);
    for (uint64_t k : {uint64_t{1}, uint64_t{2}, (y_top + 1) / g - 1,
                       (y_top + 1) / g}) {
      for (uint64_t y : {k * g - 1, k * g}) {
        if (const auto folded = WithFold(g, y)) x.push_back(*folded);
      }
    }
    for (int i = 0; i < 200; ++i) x.push_back(rng.Next());
    for (SimdBackend backend : TestableBackends()) {
      ScopedBackend scoped(backend);
      std::vector<uint32_t> reduced(x.size());
      SimdReduceModForTest(x.data(), x.size(), g, reduced.data());
      for (size_t i = 0; i < x.size(); ++i) {
        EXPECT_EQ(reduced[i], x[i] % g)
            << SimdBackendName(backend) << " g=" << g << " x=" << x[i];
      }
    }
  }
}

TEST(XxHash64Key8Test, MatchesGeneralPath) {
  Rng rng(505);
  for (int i = 0; i < 2000; ++i) {
    const uint64_t key = (i < 4) ? uint64_t(i) : rng.Next();
    const uint64_t seed = (i % 3 == 0) ? 0 : rng.Next();
    const uint64_t expected = XxHash64(&key, sizeof(key), seed);
    EXPECT_EQ(XxHash64Key8(key, seed), expected);
    EXPECT_EQ(XxHash64(key, seed), expected);
    EXPECT_EQ(XxHash64Key8WithRound0(XxHash64Round0(key),
                                     XxHash64SeedAcc(seed)),
              expected);
  }
}

}  // namespace
}  // namespace ldpr
