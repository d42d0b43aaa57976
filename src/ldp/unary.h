// Unary-encoding protocol family (Wang et al. 2017).
//
// The user one-hot encodes her item into a d-bit vector and perturbs
// each bit independently: the 1-bit stays 1 with probability p_keep,
// each 0-bit flips to 1 with probability q_flip.  OUE (ldp/oue.h)
// optimizes (p_keep, q_flip) = (1/2, 1/(e^eps + 1)); SUE (basic
// RAPPOR, ldp/sue.h) uses the symmetric (e^{eps/2}/(e^{eps/2}+1),
// 1/(e^{eps/2}+1)).  Everything structural — perturbation and
// support — is shared here; the exact closed-form sampler is
// FrequencyProtocol's default law.

#ifndef LDPR_LDP_UNARY_H_
#define LDPR_LDP_UNARY_H_

#include "ldp/protocol.h"

namespace ldpr {

class UnaryEncoding : public FrequencyProtocol {
 public:
  double p() const override { return p_keep_; }
  double q() const override { return q_flip_; }

  /// Fills zeroed packed bit rows in place with one uniform draw per
  /// bit, in column order — no per-user std::vector<uint8_t>.
  void AppendGenuineReports(ItemId item, uint64_t count, Rng& rng,
                            ReportBatch::Builder& out) const override;

  /// A one-hot packed row (the adaptive-attack sample encoding).
  void AppendCraftedReport(ItemId item, Rng& rng,
                           ReportBatch::Builder& out) const override;

  /// Sums the batch's packed 0/1 bit rows into integer column totals
  /// (byte-lane SIMD accumulation, util/simd.h) and adds each column
  /// total once.
  void AccumulateSupportsBatch(const ReportBatch& batch,
                               std::vector<double>& counts) const override;

  /// Exact generic unary variance:
  /// Var[Phi(v)] = (n f p(1-p) + n(1-f) q(1-q)) / (p-q)^2.
  double CountVariance(double f, size_t n) const override;

  /// Expected number of 1-bits in a genuine report: p + (d-1) q.
  /// MGA pads crafted vectors to this count.
  double ExpectedOnes() const;

 protected:
  UnaryEncoding(size_t d, double epsilon, double p_keep, double q_flip);

 private:
  double p_keep_;
  double q_flip_;
};

}  // namespace ldpr

#endif  // LDPR_LDP_UNARY_H_
