// Input poisoning attacks (IPA), Section VII-B of the paper.
//
// Under IPA, malicious users choose adversarial *input* items but
// then follow the LDP perturbation honestly, so their reports are
// statistically indistinguishable from genuine reports conditioned on
// the input.  IPA is far weaker than the general poisoning attack
// (Figure 8) because the perturbation dilutes the attacker's signal
// by the same factor it dilutes everyone's.
//
// InputPoisoningAttack wraps any input-domain distribution; MakeMgaIpa
// builds the MGA-IPA instantiation used in Figure 8 (inputs uniform
// over the target items).

#ifndef LDPR_ATTACK_IPA_H_
#define LDPR_ATTACK_IPA_H_

#include <memory>

#include "attack/attack.h"

namespace ldpr {

class InputPoisoningAttack final : public Attack {
 public:
  /// `input_distribution` is an (unnormalized) weight vector over the
  /// input domain from which malicious inputs are drawn.
  /// `targets` is recorded for FG evaluation (may be empty).
  InputPoisoningAttack(std::vector<double> input_distribution,
                       std::vector<ItemId> targets);

  std::vector<ItemId> targets() const override { return targets_; }

  /// Samples an input item per malicious user and perturbs it with
  /// the protocol's genuine perturbation algorithm (one alias sample,
  /// then one AppendGenuineReports draw, per user).
  void CraftBatch(const FrequencyProtocol& protocol, size_t m, Rng& rng,
                  ReportBatch::Builder& out) const override;

 private:
  std::vector<double> input_distribution_;
  std::vector<ItemId> targets_;
};

/// MGA-IPA: malicious inputs uniform over `targets`, honestly
/// perturbed (the Figure 8 baseline).
std::unique_ptr<InputPoisoningAttack> MakeMgaIpa(size_t d,
                                                 std::vector<ItemId> targets);

}  // namespace ldpr

#endif  // LDPR_ATTACK_IPA_H_
