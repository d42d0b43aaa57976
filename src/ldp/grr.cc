#include "ldp/grr.h"

#include <cmath>

#include "util/logging.h"
#include "util/simd.h"

namespace ldpr {

Grr::Grr(size_t d, double epsilon) : FrequencyProtocol(d, epsilon) {
  const double e = std::exp(epsilon);
  const double denom = static_cast<double>(d) - 1.0 + e;
  p_ = e / denom;
  q_ = 1.0 / denom;
}

void Grr::AppendGenuineReports(ItemId item, uint64_t count, Rng& rng,
                               ReportBatch::Builder& out) const {
  LDPR_CHECK(item < d_);
  out.Reserve(count);
  for (uint64_t u = 0; u < count; ++u) {
    if (rng.Bernoulli(p_)) {
      out.AddValue(item);
    } else {
      // Uniform over the d-1 items other than `item`.
      uint64_t draw = rng.UniformU64(d_ - 1);
      if (draw >= item) ++draw;
      out.AddValue(static_cast<uint32_t>(draw));
    }
  }
}

void Grr::AppendCraftedReport(ItemId item, Rng& rng,
                              ReportBatch::Builder& out) const {
  (void)rng;
  LDPR_CHECK(item < d_);
  out.AddValue(item);
}

void Grr::AccumulateSupportsBatch(const ReportBatch& batch,
                                  std::vector<double>& counts) const {
  LDPR_CHECK(counts.size() == d_);
  const size_t n = batch.size();
  const uint32_t* values = batch.values();
  if (n < d_ / 4) {
    // Sparse batch: the O(d) histogram merge would dominate.
    for (size_t i = 0; i < n; ++i) {
      const uint32_t v = values[i];
      LDPR_CHECK(v < d_);
      counts[v] += 1.0;
    }
    return;
  }
  // Dense batch: count occurrences in integers (the bank-interleaved
  // histogram kernel), add each bucket once.  n consecutive +1.0's
  // and one +n are the same exact double.
  std::vector<uint64_t> hist(d_, 0);
  SimdValueHistogramAdd(values, n, d_, hist.data());
  for (size_t v = 0; v < d_; ++v) {
    if (hist[v] != 0) counts[v] += static_cast<double>(hist[v]);
  }
}

double Grr::CountVariance(double f, size_t n) const {
  const double e = std::exp(epsilon_);
  const double nd = static_cast<double>(n);
  const double dd = static_cast<double>(d_);
  return nd * (dd - 2.0 + e) / ((e - 1.0) * (e - 1.0)) +
         nd * f * (dd - 2.0) / (e - 1.0);
}

std::vector<double> Grr::SampleSupportCountsRange(
    const std::vector<uint64_t>& item_counts, uint64_t user_begin,
    uint64_t user_end, Rng& rng) const {
  LDPR_CHECK(item_counts.size() == d_);
  const std::vector<uint64_t> in_range =
      RestrictItemCountsToUsers(item_counts, user_begin, user_end);
  std::vector<double> counts(d_, 0.0);
  const size_t others = d_ - 1;
  for (ItemId item = 0; item < d_; ++item) {
    const uint64_t n_item = in_range[item];
    if (n_item == 0) continue;
    const uint64_t kept = rng.Binomial(n_item, p_);
    counts[item] += static_cast<double>(kept);
    uint64_t remaining = n_item - kept;
    if (remaining == 0) continue;
    // Spread the misreports uniformly over the d-1 other items, in
    // place: SampleMultinomial's conditional binomials over unit
    // weights, draw for draw.  Other-bin j is item j, or j + 1 from
    // `item` on; the last bin takes whatever is left.
    double remaining_weight = static_cast<double>(others);
    for (size_t j = 0; j + 1 < others && remaining > 0; ++j) {
      const uint64_t c = rng.Binomial(remaining, 1.0 / remaining_weight);
      remaining_weight -= 1.0;
      if (c == 0) continue;
      counts[j < item ? j : j + 1] += static_cast<double>(c);
      remaining -= c;
    }
    counts[others - 1 < item ? others - 1 : others] +=
        static_cast<double>(remaining);
  }
  return counts;
}

}  // namespace ldpr
