// AA: the paper's Adaptive Attack (Section V-C), which unifies
// existing poisoning attacks as sampling malicious data from an
// attacker-designed distribution P over the encoded domain.
//
// The experimental instantiation (Section VI-A3) generates P at
// random: P is a uniformly random probability vector over the d items
// (a flat-Dirichlet draw), each malicious value is sampled from P,
// and the crafted encoded report deterministically supports the
// sampled item.  MGA is the special case where P puts mass 1/r on
// each of the r targets; Manip is the special case where P is uniform
// over a random sub-domain.

#ifndef LDPR_ATTACK_ADAPTIVE_H_
#define LDPR_ATTACK_ADAPTIVE_H_

#include <optional>

#include "attack/attack.h"

namespace ldpr {

class AdaptiveAttack final : public Attack {
 public:
  /// Random-P variant: a fresh attacker-designed distribution is
  /// drawn for every CraftBatch() call (i.e. per trial), matching the
  /// paper's "randomly generate the attacker-designed distribution".
  AdaptiveAttack() = default;

  /// Fixed-P variant: samples from the given distribution over the
  /// input domain (used by tests and the multi-attacker harness).
  explicit AdaptiveAttack(std::vector<double> distribution);

  /// Draws P (random-P variant), then per report one item from P and
  /// the protocol's AppendCraftedReport for it.
  void CraftBatch(const FrequencyProtocol& protocol, size_t m, Rng& rng,
                  ReportBatch::Builder& out) const override;

  /// The fixed distribution, if any.
  const std::optional<std::vector<double>>& distribution() const {
    return distribution_;
  }

 private:
  std::optional<std::vector<double>> distribution_;
};

}  // namespace ldpr

#endif  // LDPR_ATTACK_ADAPTIVE_H_
