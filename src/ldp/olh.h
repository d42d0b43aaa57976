// Optimized Local Hashing (OLH), Wang et al. 2017;
// Section III-B of the paper, Eqs. (8)-(10).
//
// Each user picks a hash function H uniformly from a seeded family
// mapping D into {0, ..., g-1}, perturbs the hashed bucket with GRR
// over the g-sized domain, and reports the tuple (H, bucket).  A
// report (H, b) supports every item v with H(v) == b.  OlhBase
// implements the mechanics for any g; Olh fixes the paper's optimal
// g = ceil(e^eps + 1), and ldp/blh.h fixes g = 2 (binary local
// hashing).

#ifndef LDPR_LDP_OLH_H_
#define LDPR_LDP_OLH_H_

#include "ldp/protocol.h"
#include "util/hash_family.h"

namespace ldpr {

class OlhBase : public FrequencyProtocol {
 public:
  /// Local-hashing protocol with an explicit hash range g >= 2.
  OlhBase(size_t d, double epsilon, uint32_t g);

  /// p = e^eps / (e^eps + g - 1): the GRR-over-g retention
  /// probability, which is exactly the support probability of the
  /// reporter's own item.
  double p() const override { return p_; }

  /// q = 1/g: a non-held item hashes into the reported bucket
  /// uniformly.
  double q() const override { return q_; }

  uint32_t g() const { return g_; }

  /// H_seed(item) in {0, ..., g-1}.
  uint32_t Hash(uint64_t seed, ItemId item) const {
    return SeededHash(seed, g_)(item);
  }

  /// Appends (seed, value) pairs: seed = rng.Next(), then GRR over
  /// the g buckets around H_seed(item).  The item-only xxHash half is
  /// hoisted across the whole run of same-item users and the bucket
  /// modulus strength-reduced (bit-identical hashing —
  /// util/hash_family.h).
  void AppendGenuineReports(ItemId item, uint64_t count, Rng& rng,
                            ReportBatch::Builder& out) const override;

  /// An attacker-crafted report for `item`: a uniformly random seed
  /// with the bucket set to H_seed(item), so the report is guaranteed
  /// to support `item` (and incidentally ~d/g others, as for genuine
  /// reports).
  void AppendCraftedReport(ItemId item, Rng& rng,
                           ReportBatch::Builder& out) const override;

  /// Tiles the O(n*d) hash evaluation into report blocks so the SoA
  /// seeds/values slice stays L1-resident across the item sweep (the
  /// split-hash tile kernel of util/simd.h), with the per-item support
  /// counted in an integer register.
  void AccumulateSupportsBatch(const ReportBatch& batch,
                               std::vector<double>& counts) const override;

  /// Generic pure-protocol variance n * q(1-q)/(p-q)^2; with the
  /// optimal g this equals Eq. (10)'s 4 e^eps / (e^eps - 1)^2 up to
  /// the integrality of g.
  double CountVariance(double f, size_t n) const override;

  /// 1 + (d-1)/g: the crafted item plus uniform hash collisions.
  double CraftedSupportBudget() const override {
    return 1.0 + static_cast<double>(d_ - 1) / static_cast<double>(g_);
  }

 private:
  uint32_t g_;
  double p_;
  double q_;
  FastMod mod_;  // exact strength-reduced % g_
};

class Olh final : public OlhBase {
 public:
  /// Uses the paper's default g = ceil(e^eps + 1) when `g` is 0.
  Olh(size_t d, double epsilon, uint32_t g = 0);

  ProtocolKind kind() const override { return ProtocolKind::kOlh; }
};

}  // namespace ldpr

#endif  // LDPR_LDP_OLH_H_
