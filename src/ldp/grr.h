// Generalized Randomized Response (GRR), Kairouz et al. 2014;
// Section III-B of the paper, Eqs. (2)-(4).
//
// Each user reports her true item with probability
// p = e^eps / (d - 1 + e^eps) and any other specific item with
// probability q = 1 / (d - 1 + e^eps).  A report supports exactly the
// single item it carries.

#ifndef LDPR_LDP_GRR_H_
#define LDPR_LDP_GRR_H_

#include "ldp/protocol.h"

namespace ldpr {

class Grr final : public FrequencyProtocol {
 public:
  Grr(size_t d, double epsilon);

  ProtocolKind kind() const override { return ProtocolKind::kGrr; }

  double p() const override { return p_; }
  double q() const override { return q_; }

  /// Appends perturbed values straight into the batch's values[]
  /// array: the true item with probability p, otherwise one of the
  /// d-1 other items uniformly.
  void AppendGenuineReports(ItemId item, uint64_t count, Rng& rng,
                            ReportBatch::Builder& out) const override;

  /// An attacker-crafted GRR report for `item` is simply the item
  /// itself (malicious users bypass perturbation).
  void AppendCraftedReport(ItemId item, Rng& rng,
                           ReportBatch::Builder& out) const override;

  /// A report-heavy batch folds through an integer value histogram
  /// (O(n + d), bank-interleaved via util/simd.h); a sparse one adds
  /// values directly.  Both orderings sum the same integers.
  void AccumulateSupportsBatch(const ReportBatch& batch,
                               std::vector<double>& counts) const override;

  /// Eq. (4): Var[Phi(v)] = n*(d-2+e^eps)/(e^eps-1)^2
  ///                        + n*f*(d-2)/(e^eps-1).
  double CountVariance(double f, size_t n) const override;

  /// Exact closed-form sampling of the canonical users [user_begin,
  /// user_end): the histogram is restricted to them, then kept
  /// reports are Binomial(n_v, p) and each misreport lands uniformly
  /// on one of the d-1 other items, so misreports from item v spread
  /// multinomially, one conditional binomial per other item, written
  /// straight into the counts.  O(#populated items * d) draws, O(d^2)
  /// worst case — items absent from the range cost none.  Nearly all
  /// of those binomials have n*p << 1 and cost one uniform and one
  /// compare; pow() runs only for a draw that lands near a hit.
  std::vector<double> SampleSupportCountsRange(
      const std::vector<uint64_t>& item_counts, uint64_t user_begin,
      uint64_t user_end, Rng& rng) const override;

 private:
  double p_;
  double q_;
};

}  // namespace ldpr

#endif  // LDPR_LDP_GRR_H_
