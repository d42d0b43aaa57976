// FrequencyProtocol: the common interface of pure LDP protocols for
// frequency estimation (Section III of the paper).
//
// A protocol is a pair (Psi, Phi): users perturb with Psi
// (AppendGenuineReports), and the server aggregates with Phi, which
// for every pure protocol has the unified form of Eq. (11):
//
//     Phi_eps(v) = (C(v) - n*q) / (p - q),
//
// where C(v) counts the reports whose support set contains v
// (Eq. (12)-(13)).  Each concrete protocol supplies its perturbation
// probabilities p and q and implements perturbation, crafting and
// support counting once each, over ReportBatch (ldp/report_batch.h);
// the shared aggregation and estimation logic lives here.
//
// Aggregation comes in three flavors (docs/architecture.md):
//
//  1. Batched: Aggregator::AddAll folds materialized reports a
//     ReportBatch at a time through AccumulateSupportsBatch (O(d)
//     counters, any report source).
//  2. Closed-form sampling: each protocol's one genuine sampler,
//     SampleSupportCountsRange, draws the aggregate support-count
//     vector of the canonical users [user_begin, user_end) directly
//     from its distribution, without per-user reports.
//     SampleSupportCounts is the whole-population call of it.
//  3. Sharded: the *Sharded variants split the population (or report
//     batch) into fixed-size contiguous chunks, process chunk c on
//     its own Rng(DeriveSeed(seed, c)), and merge partial
//     support-count vectors in chunk order.  Because the chunk
//     decomposition depends only on the population — never on the
//     worker count — the output is byte-identical at any `shards`
//     value; shards only decide how many pool workers chew on the
//     chunks.  This is what lets one paper-scale trial (millions of
//     users) use every core.
//
// The canonical user ordering behind the sharded paths: users are
// grouped by item, items ascending — user indices [0, n_0) hold item
// 0, [n_0, n_0 + n_1) hold item 1, and so on.

#ifndef LDPR_LDP_PROTOCOL_H_
#define LDPR_LDP_PROTOCOL_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "ldp/report.h"
#include "ldp/report_batch.h"
#include "util/random.h"

namespace ldpr {

/// Discriminates concrete protocol implementations; attacks switch on
/// this to craft protocol-specific malicious reports.
enum class ProtocolKind {
  kGrr,
  kOue,
  kOlh,
  kSue,  // symmetric unary encoding (basic RAPPOR)
  kBlh,  // binary local hashing (OLH with g = 2)
};

const char* ProtocolKindName(ProtocolKind kind);

/// Users per aggregation shard.  Fixed (rather than derived from the
/// worker count) so the shard decomposition — and therefore every
/// sharded sampling output — depends only on the population size.
inline constexpr uint64_t kUsersPerAggregationShard = 1u << 16;

/// Reports per chunk in Aggregator::AddAllSharded.  Chosen so one
/// chunk is a few milliseconds of support accumulation even for the
/// O(d)-per-report protocols (OLH, unary).
inline constexpr size_t kReportsPerAggregationShard = 1u << 13;

/// How many canonical users of one item fall inside
/// [user_begin, user_end), given that the item's user block starts at
/// `item_offset` and holds `item_count` users.  The single home of
/// the canonical-ordering clipping arithmetic — used by
/// RestrictItemCountsToUsers and the protocol range samplers.
inline uint64_t UsersOfItemInRange(uint64_t item_offset, uint64_t item_count,
                                   uint64_t user_begin, uint64_t user_end) {
  const uint64_t lo = item_offset < user_begin ? user_begin : item_offset;
  const uint64_t item_end = item_offset + item_count;
  const uint64_t hi = item_end < user_end ? item_end : user_end;
  return hi > lo ? hi - lo : 0;
}

/// Restriction of a population histogram to the canonical users
/// [user_begin, user_end): entry v is how many of those users hold
/// item v.  The canonical ordering groups users by item, items
/// ascending.  Requires user_begin <= user_end <= sum(item_counts).
std::vector<uint64_t> RestrictItemCountsToUsers(
    const std::vector<uint64_t>& item_counts, uint64_t user_begin,
    uint64_t user_end);

/// Canonical user-chunk decomposition of an n-user population: chunk
/// c covers users [c*users_per_chunk, min(n, (c+1)*users_per_chunk)).
/// An empty population still forms one (empty) chunk, matching
/// ShardedSupportCounts.  Exported so the shard layer (src/shard/)
/// agrees with the sharded aggregation path on the decomposition.
inline uint64_t UserChunkCount(
    uint64_t n, uint64_t users_per_chunk = kUsersPerAggregationShard) {
  return n == 0 ? 1 : (n + users_per_chunk - 1) / users_per_chunk;
}

/// Canonical report-chunk decomposition of an m-report batch: chunk c
/// covers reports [c*reports_per_chunk, min(m, (c+1)*
/// reports_per_chunk)).  An empty batch has zero chunks, matching
/// Aggregator::AddAllSharded's no-op on empty input.
inline uint64_t ReportChunkCount(
    uint64_t m, uint64_t reports_per_chunk = kReportsPerAggregationShard) {
  return (m + reports_per_chunk - 1) / reports_per_chunk;
}

/// The shared scaffolding of every sharded-over-users aggregation
/// path: cuts an n-user population into kUsersPerAggregationShard-
/// sized chunks, runs per_chunk(user_begin, user_end, rng) for chunk
/// c on Rng(DeriveSeed(seed, c)) across `shards` pool workers (0 =
/// auto), and merges the returned length-d partial vectors in chunk
/// order.  The chunk decomposition depends only on n, so the output
/// is byte-identical at every `shards` value.
std::vector<double> ShardedSupportCounts(
    uint64_t n, size_t d, uint64_t seed, size_t shards,
    const std::function<std::vector<double>(uint64_t user_begin,
                                            uint64_t user_end, Rng& rng)>&
        per_chunk);

/// Interface of a pure LDP frequency-estimation protocol.
class FrequencyProtocol {
 public:
  /// `d` is the input-domain size |D| (>= 2); `epsilon` the privacy
  /// budget (> 0).
  FrequencyProtocol(size_t d, double epsilon);
  virtual ~FrequencyProtocol() = default;

  FrequencyProtocol(const FrequencyProtocol&) = delete;
  FrequencyProtocol& operator=(const FrequencyProtocol&) = delete;

  virtual ProtocolKind kind() const = 0;

  size_t domain_size() const { return d_; }
  double epsilon() const { return epsilon_; }

  /// Probability that a genuine report supports the reporter's own
  /// item ("p" in the paper's unified notation).
  virtual double p() const = 0;

  /// Probability that a genuine report supports any other given item
  /// ("q").
  virtual double q() const = 0;

  /// The user-side perturbation algorithm Psi_eps: appends `count`
  /// genuine perturbed reports for users holding `item` straight into
  /// a builder-mode batch.  Users draw their randomness one after
  /// another, so one call with count = k and k calls with count = 1
  /// append the same reports and leave `rng` in the same state
  /// (tests/report_gen_batch_test.cc checks this, and checks the
  /// draws against the per-report oracle in tests/report_oracle.h).
  virtual void AppendGenuineReports(ItemId item, uint64_t count, Rng& rng,
                                    ReportBatch::Builder& out) const = 0;

  /// Appends one report in the *encoded* domain that deterministically
  /// supports `item` — the building block of poisoning attacks, which
  /// bypass the perturbation step (Section IV-A).
  virtual void AppendCraftedReport(ItemId item, Rng& rng,
                                   ReportBatch::Builder& out) const = 0;

  /// The support predicate of Eq. (13), summed over a batch: adds to
  /// counts[v] (size d) the number of reports of `batch` whose support
  /// set contains v.  Each protocol runs one tight specialized pass:
  /// GRR a value histogram, the unary family packed per-column bit
  /// sums, and local hashing an (item-block x report-block) tiling
  /// that keeps the seeds/values slices and the active counts window
  /// in cache.  Support counts are integer sums, so any regrouping of
  /// the additions is exact (ldp/report_batch.h).  This is the hot
  /// path of every report-heavy aggregation (Aggregator::AddAll*,
  /// DetectionFilter, the k-means defense, the malicious report
  /// stream).
  virtual void AccumulateSupportsBatch(const ReportBatch& batch,
                                       std::vector<double>& counts) const = 0;

  /// One genuine report as a materialized Report, via
  /// AppendGenuineReports.  An adapter for the AoS fig9 replay in
  /// perf/src/replay.cc; delete with it.
  Report Perturb(ItemId item, Rng& rng) const;

  /// Server-side estimation Phi_eps: converts raw support counts into
  /// unbiased count estimates, Eq. (11): (C(v) - n*q) / (p - q).
  std::vector<double> AdjustCounts(const std::vector<double>& support_counts,
                                   size_t n) const;

  /// Converts raw support counts into estimated *frequencies*,
  /// i.e. AdjustCounts() divided by n.
  std::vector<double> EstimateFrequencies(
      const std::vector<double>& support_counts, size_t n) const;

  /// Theoretical variance of the estimated count Phi(v) for an item
  /// with true frequency f (Eqs. (4), (7), (10)).
  virtual double CountVariance(double f, size_t n) const = 0;

  /// Theoretical variance of the estimated *frequency* of an item
  /// with true frequency f: CountVariance / n^2.
  double FrequencyVariance(double f, size_t n) const;

  /// Samples the support-count contribution of the canonical users
  /// [user_begin, user_end) from its closed-form law, without
  /// materializing per-user reports — each protocol's one genuine
  /// sampler, and the shard-level building block of
  /// SampleSupportCountsSharded.  This default is the independent-
  /// support law: for each item v in ascending order it draws
  /// Binomial(own_v, p()), then Binomial(chunk_n - own_v, q()), with
  /// own_v counted without materializing the restricted histogram.
  /// It is exact for the unary family (bits are independent) and
  /// per-item exact for OLH/BLH (only the cross-item correlation
  /// induced by shared hash seeds is dropped — see
  /// docs/architecture.md, "Closed-form approximations"; detection's
  /// OLH/BLH re-draw does not use it, and simulates every user); GRR
  /// overrides it with its exact multinomial.  Every law decomposes
  /// over user subsets (sums of independent binomials / multinomials
  /// recompose), so sampling [b, e) of a histogram draws exactly what
  /// sampling [0, e - b) of its restriction (RestrictItemCountsToUsers)
  /// draws.
  virtual std::vector<double> SampleSupportCountsRange(
      const std::vector<uint64_t>& item_counts, uint64_t user_begin,
      uint64_t user_end, Rng& rng) const;

  /// The whole population: SampleSupportCountsRange(item_counts, 0,
  /// n, rng) with n = sum(item_counts).
  std::vector<double> SampleSupportCounts(
      const std::vector<uint64_t>& item_counts, Rng& rng) const;

  /// Batched genuine report generation for a whole population: for
  /// each item in ascending order, appends item_counts[v] perturbed
  /// reports via AppendGenuineReports.  The canonical user ordering
  /// (and Rng draw order) of the per-user samplers.
  void SampleReportsBatch(const std::vector<uint64_t>& item_counts, Rng& rng,
                          ReportBatch::Builder& out) const;

  /// Per-user exact simulation of a population: generates every
  /// user's report through AppendGenuineReports, items ascending (the
  /// canonical per-user Rng draw order), into one SoA buffer and
  /// hands it to `on_tile` every kBatchFlushReports reports, and once
  /// more for a final partial tile.  The buffer is cleared after each
  /// call.  The one report loop of ExactSupportCounts and of
  /// Detection's per-user re-draw (DetectionFilter::OfferExactGenuine).
  void GenerateGenuineTiles(
      const std::vector<uint64_t>& item_counts, Rng& rng,
      const std::function<void(const ReportBatch&)>& on_tile) const;

  /// Per-user exact simulation of a population's support counts:
  /// GenerateGenuineTiles accumulated through the batched path.  The
  /// exact-genuine reference path the closed-form samplers are
  /// validated against (sharded by sim/pipeline's
  /// ExactGenuineSupportCountsSharded).
  std::vector<double> ExactSupportCounts(
      const std::vector<uint64_t>& item_counts, Rng& rng) const;

  /// Sharded, deterministic SampleSupportCounts: splits the
  /// population into kUsersPerAggregationShard-sized contiguous
  /// chunks of the canonical user ordering, samples chunk c on
  /// Rng(DeriveSeed(seed, c)) via SampleSupportCountsRange, and merges
  /// the partial vectors in chunk order across `shards` pool workers
  /// (0 = auto, 1 = run chunks serially).  Output is byte-identical
  /// at every `shards` value because neither the chunking nor the
  /// per-chunk RNG streams depend on it.
  std::vector<double> SampleSupportCountsSharded(
      const std::vector<uint64_t>& item_counts, uint64_t seed,
      size_t shards) const;

  /// The per-chunk unit of SampleSupportCountsSharded, exported so a
  /// shard (src/shard/) can compute exactly the partial the sharded
  /// aggregation path would: support counts of canonical
  /// user chunk `chunk` (see UserChunkCount) sampled on
  /// Rng(DeriveSeed(seed, chunk)).  Summing the chunks in ascending
  /// order reproduces SampleSupportCountsSharded byte for byte at the
  /// default chunk size (integer-valued partials sum exactly).
  std::vector<double> SampleSupportCountsChunk(
      const std::vector<uint64_t>& item_counts, uint64_t seed, uint64_t chunk,
      uint64_t users_per_chunk = kUsersPerAggregationShard) const;

  /// Expected number of items an AppendCraftedReport() report
  /// supports, E[sum_v 1_{S(y)}(v)].  GRR and one-hot OUE reports
  /// support exactly the chosen item (budget 1 — the paper's adaptive
  /// attack model); an OLH report additionally supports every item
  /// colliding into its bucket, budget 1 + (d-1)/g.
  virtual double CraftedSupportBudget() const { return 1.0; }

 protected:
  size_t d_;
  double epsilon_;
};

/// Reports per flush of the SoA flush buffers (the per-user exact
/// samplers, the Detection survivor buffers, the k-means subset
/// tiles): large enough to amortize the batched dispatch, small
/// enough to bound the buffered unary bit rows (4096 * d bytes —
/// 16 MB at the scaling scenarios' largest d=4096, a few hundred KB
/// at paper-table domain sizes).  The windowed stream engine
/// (stream/streaming_engine.h) flushes its per-pane buffers at this
/// same size, so it also caps that path's peak_buffered_reports.
inline constexpr size_t kBatchFlushReports = 4096;

/// Server-side aggregator: folds report batches (and pre-sampled
/// support counts) into the d support counters.
class Aggregator {
 public:
  explicit Aggregator(const FrequencyProtocol& protocol);

  /// Folds a batch of reports through the protocol's
  /// AccumulateSupportsBatch.
  void AddAll(const ReportBatch& batch);

  /// Folds a batch of reports across `shards` pool workers (0 =
  /// auto): the batch splits into kReportsPerAggregationShard-sized
  /// zero-copy Slice() chunks, each chunk runs AccumulateSupportsBatch
  /// into its own partial vector, and the partials merge in chunk
  /// order.  Support counts are sums of 1.0's (exact in double well
  /// past 2^50 reports), so the result is byte-identical to AddAll at
  /// every shard count.
  void AddAllSharded(const ReportBatch& batch, size_t shards);

  /// Packs `reports` into a batch and folds it as above.  An adapter
  /// for the AoS fig9 replay in perf/src/replay.cc; delete with it.
  void AddAllSharded(const std::vector<Report>& reports, size_t shards);

  /// Number of reports aggregated so far.
  size_t report_count() const { return report_count_; }

  /// Raw support counts C(v).
  const std::vector<double>& support_counts() const { return counts_; }

  /// Merges pre-sampled support counts for `n` additional users (fast
  /// simulation path).
  void AddSampledCounts(const std::vector<double>& counts, size_t n);

  /// Unbiased frequency estimates over all reports seen so far.
  std::vector<double> EstimateFrequencies() const;

  /// Unbiased frequency estimates normalizing by an explicit user
  /// count (used by Detection, which drops reports after the fact).
  std::vector<double> EstimateFrequencies(size_t n_override) const;

 private:
  const FrequencyProtocol& protocol_;
  std::vector<double> counts_;
  size_t report_count_ = 0;
};

}  // namespace ldpr

#endif  // LDPR_LDP_PROTOCOL_H_
