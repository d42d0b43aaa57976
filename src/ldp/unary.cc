#include "ldp/unary.h"

#include <algorithm>

#include "util/logging.h"
#include "util/simd.h"

namespace ldpr {

UnaryEncoding::UnaryEncoding(size_t d, double epsilon, double p_keep,
                             double q_flip)
    : FrequencyProtocol(d, epsilon), p_keep_(p_keep), q_flip_(q_flip) {
  LDPR_CHECK(p_keep_ > q_flip_);
  LDPR_CHECK(q_flip_ > 0.0 && p_keep_ < 1.0);
}

void UnaryEncoding::AppendGenuineReports(ItemId item, uint64_t count, Rng& rng,
                                         ReportBatch::Builder& out) const {
  LDPR_CHECK(item < d_);
  out.SetBitsWidth(d_);
  out.Reserve(count);
  // One uniform per bit, in column order: p_keep_ and q_flip_ lie in
  // (0, 1) (checked in the constructor), where this is exactly
  // Rng::Bernoulli's draw.  The loop splits around the held item so
  // no bit selects its probability.
  for (uint64_t u = 0; u < count; ++u) {
    uint8_t* row = out.AddBitsRow();
    for (size_t i = 0; i < item; ++i) row[i] = rng.UniformDouble() < q_flip_;
    row[item] = rng.UniformDouble() < p_keep_;
    for (size_t i = item + 1; i < d_; ++i)
      row[i] = rng.UniformDouble() < q_flip_;
  }
}

void UnaryEncoding::AppendCraftedReport(ItemId item, Rng& rng,
                                        ReportBatch::Builder& out) const {
  (void)rng;
  LDPR_CHECK(item < d_);
  out.SetBitsWidth(d_);
  out.AddBitsRow()[item] = 1;
}

void UnaryEncoding::AccumulateSupportsBatch(const ReportBatch& batch,
                                            std::vector<double>& counts) const {
  LDPR_CHECK(counts.size() == d_);
  if (batch.empty()) return;
  LDPR_CHECK(batch.bits_width() == d_);
  // Per-column integer sums over row tiles: the tile bounds the
  // uint32 column accumulators (bits are 0/1, so a tile of < 2^32
  // rows cannot overflow); per tile, each column total is added to
  // counts once, in ascending column order.  The column summation
  // itself runs through the byte-lane SIMD kernel over the packed
  // matrix.
  constexpr size_t kRowTile = 1u << 22;
  std::vector<uint32_t> column_ones(d_);
  for (size_t row0 = 0; row0 < batch.size(); row0 += kRowTile) {
    const size_t row1 = std::min(batch.size(), row0 + kRowTile);
    std::fill(column_ones.begin(), column_ones.end(), 0u);
    SimdUnaryColumnsAddPacked(batch.bits_row(row0), row1 - row0, d_,
                              column_ones.data());
    for (size_t v = 0; v < d_; ++v) {
      if (column_ones[v] != 0) counts[v] += static_cast<double>(column_ones[v]);
    }
  }
}

double UnaryEncoding::CountVariance(double f, size_t n) const {
  const double nd = static_cast<double>(n);
  const double diff = p_keep_ - q_flip_;
  return (nd * f * p_keep_ * (1.0 - p_keep_) +
          nd * (1.0 - f) * q_flip_ * (1.0 - q_flip_)) /
         (diff * diff);
}

double UnaryEncoding::ExpectedOnes() const {
  return p_keep_ + static_cast<double>(d_ - 1) * q_flip_;
}

}  // namespace ldpr
