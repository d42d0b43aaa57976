// Detection: the malicious-user detection countermeasure of Cao et
// al. (USENIX Security 2021), adapted as the paper's comparison
// baseline (Section VI-A5).
//
// Knowing the target items, the server labels a report malicious if
// it supports any target and discards it, then re-estimates
// frequencies from the survivors.  The method's weakness — which the
// paper's Figures 3-4 exhibit — is that genuine users whose perturbed
// reports happen to support a target are discarded too, biasing the
// surviving sample.
//
// DetectionFilter is a streaming classifier + aggregator so the
// simulation pipeline can run Detection without materializing the
// genuine report set.  For GRR and the unary family (OUE, and SUE
// under the same law) closed-form fast paths sample the post-filter
// aggregate directly (see the .cc for the exact conditional laws);
// OLH and BLH always stream.

#ifndef LDPR_RECOVER_DETECTION_H_
#define LDPR_RECOVER_DETECTION_H_

#include <cstddef>
#include <vector>

#include "ldp/protocol.h"
#include "util/random.h"

namespace ldpr {

/// How many of the r targets a report must support to be flagged.
/// GRR reports carry a single item, so supporting any target is the
/// crafted signature.  A crafted OUE vector sets *every* target bit
/// (Cao et al.'s MGA), while a genuine report hits all r only with
/// probability ~q^r — so the all-targets rule separates cleanly.  OLH
/// seed search packs most-but-not-always-all targets into one bucket;
/// a majority rule balances catch rate against collateral damage.
size_t SuspicionThreshold(ProtocolKind kind, size_t num_targets);

class DetectionFilter {
 public:
  /// The protocol reference must outlive the filter.  `targets` is
  /// the item set the server believes the attacker promotes.
  DetectionFilter(const FrequencyProtocol& protocol,
                  std::vector<ItemId> targets);

  /// The protocol-specific suspicion threshold: a report is dropped
  /// when it supports at least this many targets (SuspicionThreshold).
  size_t threshold() const { return threshold_; }

  /// Feeds a batch: classification straight off the SoA field arrays
  /// (value lookup for GRR, target-bit count for the unary family,
  /// inline split-hash matches for OLH/BLH), survivors row-copied
  /// into a flush buffer and accumulated through the protocol's
  /// batched path.  Classification is per-report and stateless, so a
  /// stream may be offered in any tiling: the streaming engine offers
  /// each flush tile and calls ResetWindow at every pane boundary, so
  /// offered()/kept()/Estimate() describe the current window.
  void OfferAll(const ReportBatch& batch);

  /// Feeds `reports` reports that each support exactly one item, as
  /// crafted reports of an untargeted attack on GRR, OUE or SUE do:
  /// counts[v] (length d) of them support v.  Classified per item, so
  /// the same as OfferAll on the reports themselves.  Requires a
  /// GRR/OUE/SUE protocol and sum(counts) == reports.
  void OfferSingleItemCounts(const std::vector<double>& counts,
                             size_t reports);

  /// Adds everything `other`, a filter on the same protocol object and
  /// targets, was offered: the same as offering this filter every
  /// report `other` saw, since classification is per report.  Lets a
  /// trial filter its crafted reports chunk by chunk while they are
  /// crafted (sim/pipeline.h).
  void Absorb(const DetectionFilter& other);

  /// Closes the current window: zeroes the per-window counters and
  /// kept support counts, so the next window's classification state starts
  /// clean (no cross-window leakage of kept counts — the next
  /// Estimate() is exactly a fresh filter's; regression-tested in
  /// tests/detection_test.cc).
  void ResetWindow();

  /// Feeds the reports of genuine users summarized by an item-count
  /// histogram, simulating every user exactly: filters each SoA tile
  /// of FrequencyProtocol::GenerateGenuineTiles (canonical per-user
  /// Rng draw order) via OfferAll.  The exact-genuine reference path
  /// of the experiment driver.
  void OfferExactGenuine(const std::vector<uint64_t>& item_counts, Rng& rng);

  /// Fast path: feeds the reports of genuine users summarized by an
  /// item-count histogram, sampling the post-filter aggregate from
  /// the exact conditional distribution for GRR and OUE/SUE and
  /// falling back to OfferExactGenuine for OLH/BLH.
  void OfferSampledGenuine(const std::vector<uint64_t>& item_counts,
                           Rng& rng);

  /// Sharded OfferSampledGenuine on the ShardedSupportCounts
  /// scaffold: the canonical user population splits into fixed-size
  /// chunks, chunk c filters + aggregates on Rng(DeriveSeed(seed, c)),
  /// and the partial kept counts merge in chunk order across `shards`
  /// pool workers (0 = auto).  Byte-identical at every shard count;
  /// this removes the last serial per-trial aggregation path (the OLH
  /// per-user streaming filter) from million-user Detection trials.
  /// Draws are keyed by `seed`, not a caller Rng, so the caller's
  /// stream is shard-independent (same pattern as RunPoisoningTrial).
  void OfferSampledGenuineSharded(const std::vector<uint64_t>& item_counts,
                                  uint64_t seed, size_t shards);

  /// Reports seen / kept in the current window (since the last
  /// ResetWindow; the whole stream when ResetWindow is never called).
  size_t offered() const { return offered_; }
  size_t kept() const { return kept_; }

  /// Frequency estimate over the kept reports (normalized by the kept
  /// count, as the baseline prescribes).  Requires kept() > 0.
  std::vector<double> Estimate() const;

 private:
  void OfferSampledGrr(const std::vector<uint64_t>& item_counts, Rng& rng);
  void OfferSampledOue(const std::vector<uint64_t>& item_counts, Rng& rng);

  const FrequencyProtocol& protocol_;
  std::vector<ItemId> targets_;
  size_t threshold_ = 1;
  std::vector<uint8_t> is_target_;
  std::vector<double> kept_counts_;
  size_t offered_ = 0;
  size_t kept_ = 0;
};

}  // namespace ldpr

#endif  // LDPR_RECOVER_DETECTION_H_
