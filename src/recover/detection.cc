#include "recover/detection.h"

#include <algorithm>
#include <cmath>

#include "ldp/grr.h"
#include "ldp/olh.h"
#include "ldp/unary.h"
#include "util/hash_family.h"
#include "util/logging.h"

namespace ldpr {

size_t SuspicionThreshold(ProtocolKind kind, size_t num_targets) {
  switch (kind) {
    case ProtocolKind::kGrr:
      return 1;
    case ProtocolKind::kOue:
    case ProtocolKind::kSue:
      return num_targets;
    case ProtocolKind::kOlh:
    case ProtocolKind::kBlh:
      return std::max<size_t>(1, (num_targets + 1) / 2);
  }
  return 1;
}

DetectionFilter::DetectionFilter(const FrequencyProtocol& protocol,
                                 std::vector<ItemId> targets)
    : protocol_(protocol),
      targets_(std::move(targets)),
      is_target_(protocol.domain_size(), 0),
      kept_counts_(protocol.domain_size(), 0.0) {
  LDPR_CHECK(!targets_.empty());
  for (ItemId t : targets_) {
    LDPR_CHECK(t < protocol_.domain_size());
    is_target_[t] = 1;
  }
  threshold_ = SuspicionThreshold(protocol.kind(), targets_.size());
}

void DetectionFilter::OfferAll(const ReportBatch& batch) {
  const size_t n = batch.size();
  if (n == 0) return;

  // Each branch counts the targets a report supports, reading the
  // field arrays directly, and flags it at threshold_.
  const size_t d = protocol_.domain_size();
  std::vector<uint8_t> flagged(n, 0);
  switch (protocol_.kind()) {
    case ProtocolKind::kGrr: {
      // A GRR report supports exactly the value it carries;
      // threshold is 1.
      const uint32_t* values = batch.values();
      for (size_t i = 0; i < n; ++i) {
        const uint32_t v = values[i];
        LDPR_CHECK(v < d);
        flagged[i] = is_target_[v];
      }
      break;
    }
    case ProtocolKind::kOue:
    case ProtocolKind::kSue: {
      LDPR_CHECK(batch.bits_width() == d);
      const uint8_t* bits = batch.bits();
      for (size_t i = 0; i < n; ++i) {
        const uint8_t* row = bits + i * d;
        size_t supported = 0;
        for (ItemId t : targets_) supported += (row[t] != 0);
        flagged[i] = supported >= threshold_;
      }
      break;
    }
    case ProtocolKind::kOlh:
    case ProtocolKind::kBlh: {
      const auto& olh = static_cast<const OlhBase&>(protocol_);
      const FastMod mod(olh.g());
      // The target set is fixed: hoist each target's item-only xxHash
      // half out of the report loop (bit-identical hashing).
      std::vector<uint64_t> round0(targets_.size());
      for (size_t j = 0; j < targets_.size(); ++j)
        round0[j] = XxHash64Round0(targets_[j]);
      const uint64_t* seeds = batch.seeds();
      const uint32_t* values = batch.values();
      for (size_t i = 0; i < n; ++i) {
        const uint64_t seed_acc = XxHash64SeedAcc(seeds[i]);
        size_t supported = 0;
        for (size_t j = 0; j < round0.size(); ++j) {
          supported +=
              (mod(XxHash64Key8WithRound0(round0[j], seed_acc)) == values[i]);
        }
        flagged[i] = supported >= threshold_;
      }
      break;
    }
  }

  // Row-copy the survivors into a flush buffer and accumulate them
  // through the batched path.
  ReportBatch kept;
  size_t kept_here = 0;
  for (size_t i = 0; i < n; ++i) {
    if (flagged[i]) continue;
    kept.AppendFrom(batch, i);
    ++kept_here;
    if (kept.size() >= kBatchFlushReports) {
      protocol_.AccumulateSupportsBatch(kept, kept_counts_);
      kept.Clear();
    }
  }
  if (!kept.empty()) protocol_.AccumulateSupportsBatch(kept, kept_counts_);
  offered_ += n;
  kept_ += kept_here;
}

void DetectionFilter::OfferSingleItemCounts(const std::vector<double>& counts,
                                            size_t reports) {
  const ProtocolKind kind = protocol_.kind();
  LDPR_CHECK(kind == ProtocolKind::kGrr || kind == ProtocolKind::kOue ||
             kind == ProtocolKind::kSue);
  LDPR_CHECK(counts.size() == protocol_.domain_size());
  // A report on v supports is_target_[v] targets, so it is flagged
  // when that reaches the threshold: at a target under GRR, and under
  // OUE/SUE only when the target set is that one item.
  double total = 0.0;
  double kept_total = 0.0;
  for (size_t v = 0; v < counts.size(); ++v) {
    total += counts[v];
    if (is_target_[v] >= threshold_) continue;
    kept_counts_[v] += counts[v];
    kept_total += counts[v];
  }
  LDPR_CHECK(total == static_cast<double>(reports));
  offered_ += reports;
  kept_ += static_cast<size_t>(kept_total);
}

void DetectionFilter::Absorb(const DetectionFilter& other) {
  LDPR_CHECK(&other.protocol_ == &protocol_ && other.targets_ == targets_);
  offered_ += other.offered_;
  kept_ += other.kept_;
  for (size_t v = 0; v < kept_counts_.size(); ++v)
    kept_counts_[v] += other.kept_counts_[v];
}

void DetectionFilter::OfferExactGenuine(
    const std::vector<uint64_t>& item_counts, Rng& rng) {
  // Classification consumes no randomness, so filtering each tile
  // leaves the draw sequence unchanged.
  protocol_.GenerateGenuineTiles(
      item_counts, rng, [this](const ReportBatch& tile) { OfferAll(tile); });
}

void DetectionFilter::OfferSampledGrr(const std::vector<uint64_t>& item_counts,
                                      Rng& rng) {
  // A GRR report supports exactly the item it carries, so filtering
  // simply drops reports landing on targets.  Sample the full report
  // histogram exactly, then zero the target rows.
  const std::vector<double> counts =
      protocol_.SampleSupportCounts(item_counts, rng);
  uint64_t total = 0;
  for (uint64_t c : item_counts) total += c;
  offered_ += total;
  double kept_total = 0.0;
  for (size_t v = 0; v < counts.size(); ++v) {
    if (is_target_[v]) continue;
    kept_counts_[v] += counts[v];
    kept_total += counts[v];
  }
  kept_ += static_cast<size_t>(kept_total);
}

void DetectionFilter::OfferSampledOue(const std::vector<uint64_t>& item_counts,
                                      Rng& rng) {
  // OUE flags a report only when *all* r target bits are 1.  Bits are
  // independent across items, so:
  //   * a user is flagged with probability prod_t Pr[bit_t = 1]
  //     (q^r for non-target holders, (1/2) q^(r-1) for holders of a
  //     target item);
  //   * non-target bits are independent of the flag event, so kept
  //     users' non-target support counts keep the genuine law;
  //   * target bits are conditioned on "not all ones":
  //     Pr[bit_t = 1 | kept] = (Pr[bit_t = 1] - p_all) / (1 - p_all).
  const auto& oue = static_cast<const UnaryEncoding&>(protocol_);
  const double p = oue.p();
  const double q = oue.q();
  const size_t d = oue.domain_size();
  const size_t r = targets_.size();
  LDPR_CHECK(item_counts.size() == d);

  const double flag_nontarget = std::pow(q, static_cast<double>(r));
  const double flag_target =
      p * std::pow(q, static_cast<double>(r - 1));

  std::vector<uint64_t> kept_hist(d);
  uint64_t kept_total = 0;
  uint64_t offered_total = 0;
  for (size_t v = 0; v < d; ++v) {
    offered_total += item_counts[v];
    const double keep = 1.0 - (is_target_[v] ? flag_target : flag_nontarget);
    kept_hist[v] = rng.Binomial(item_counts[v], keep);
    kept_total += kept_hist[v];
  }
  offered_ += offered_total;
  kept_ += kept_total;

  for (size_t v = 0; v < d; ++v) {
    const uint64_t own = kept_hist[v];
    const uint64_t rest = kept_total - own;
    if (!is_target_[v]) {
      // Unconditioned genuine law.
      const uint64_t from_own = rng.Binomial(own, p);
      const uint64_t from_rest = rng.Binomial(rest, q);
      kept_counts_[v] += static_cast<double>(from_own + from_rest);
      continue;
    }
    // Target rows: condition each holder class on "kept".
    const double own_bit =
        (p - flag_target) / (1.0 - flag_target);
    const double rest_bit =
        (q - flag_nontarget) / (1.0 - flag_nontarget);
    const uint64_t from_own = rng.Binomial(own, own_bit);
    const uint64_t from_rest = rng.Binomial(rest, rest_bit);
    kept_counts_[v] += static_cast<double>(from_own + from_rest);
  }
}

void DetectionFilter::ResetWindow() {
  offered_ = 0;
  kept_ = 0;
  std::fill(kept_counts_.begin(), kept_counts_.end(), 0.0);
}

void DetectionFilter::OfferSampledGenuine(
    const std::vector<uint64_t>& item_counts, Rng& rng) {
  LDPR_CHECK(item_counts.size() == protocol_.domain_size());
  switch (protocol_.kind()) {
    case ProtocolKind::kGrr:
      OfferSampledGrr(item_counts, rng);
      return;
    case ProtocolKind::kOue:
    case ProtocolKind::kSue:
      OfferSampledOue(item_counts, rng);
      return;
    case ProtocolKind::kOlh:
    case ProtocolKind::kBlh:
      // Under an ideal hash a report's per-item supports are
      // independent, so a closed form exists (ROADMAP item 4(b)).  It
      // moves the trial's random stream, so the per-user re-draw stays
      // until it lands with a regeneration of ci/baseline.
      OfferExactGenuine(item_counts, rng);
      return;
  }
}

void DetectionFilter::OfferSampledGenuineSharded(
    const std::vector<uint64_t>& item_counts, uint64_t seed, size_t shards) {
  const size_t d = protocol_.domain_size();
  LDPR_CHECK(item_counts.size() == d);
  uint64_t n = 0;
  for (uint64_t c : item_counts) n += c;

  // Every per-protocol sampler decomposes over user subsets (the
  // closed-form laws are products over independent users; streaming
  // is per-user by construction), so each chunk runs the ordinary
  // OfferSampledGenuine on its restricted histogram through a local
  // filter and exports its kept support counts plus — in one extra
  // trailing slot — its kept-report count.
  const std::vector<double> merged = ShardedSupportCounts(
      n, d + 1, seed, shards,
      [&](uint64_t begin, uint64_t end, Rng& rng) {
        DetectionFilter local(protocol_, targets_);
        local.OfferSampledGenuine(
            RestrictItemCountsToUsers(item_counts, begin, end), rng);
        std::vector<double> partial = std::move(local.kept_counts_);
        partial.push_back(static_cast<double>(local.kept_));
        return partial;
      });

  offered_ += n;
  kept_ += static_cast<size_t>(merged[d]);
  for (size_t v = 0; v < d; ++v) kept_counts_[v] += merged[v];
}

std::vector<double> DetectionFilter::Estimate() const {
  LDPR_CHECK(kept_ > 0);
  return protocol_.EstimateFrequencies(kept_counts_, kept_);
}

}  // namespace ldpr
