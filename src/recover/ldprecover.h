// LDPRecover: the paper's frequency-recovery method (Section V,
// Algorithm 1).
//
// Given the poisoned frequency vector f~_Z aggregated by the server,
// LDPRecover outputs recovered frequencies f'_X close to the genuine
// f~_X by solving the constraint-inference problem (Eqs. (22)-(25)):
//
//   1. estimate the malicious frequencies f~'_Y from protocol
//      properties alone (non-knowledge, Eq. (26)) or additionally
//      from a known attacker-selected item set T (partial knowledge,
//      LDPRecover*, Eq. (30));
//   2. apply the genuine frequency estimator of Eq. (19),
//      f~_X = (1 + eta) f~_Z - eta f~_Y, with the learnt f~_Y
//      substituted (Eq. (27)/(31); EstimateGenuineFrequencies);
//   3. refine onto the probability simplex with the KKT projection
//      (Eqs. (32)-(35)).
//
// The class also exposes its intermediate malicious-frequency
// estimate (used by the Figure 7 experiment) and accepts an override
// of the learnt malicious statistics (used by LDPRecover-KM, which
// learns them from a k-means clustering under input poisoning,
// Section VII-B).

#ifndef LDPR_RECOVER_LDPRECOVER_H_
#define LDPR_RECOVER_LDPRECOVER_H_

#include <optional>
#include <vector>

#include "ldp/protocol.h"

namespace ldpr {

/// Configuration of a recovery run.
struct RecoverOptions {
  /// The server's (over-)estimate of m/n.  The paper's default is
  /// 0.2, deliberately exceeding the true ratio (Section VI-A4); the
  /// eta sweeps of Figures 5-6 vary it.
  double eta = 0.2;

  /// Known attacker-selected items: engaging this switches the
  /// instance from LDPRecover to LDPRecover*.
  std::optional<std::vector<ItemId>> known_targets;

  /// Use the paper's literal Eq. (28) (-q*d) for the zero-mass
  /// sub-domain sum rather than the per-item-exact -q*|D'|.
  ///
  /// Default TRUE: combined with Eq. (25) the literal form assigns
  /// the attacker-selected items a total of exactly 1/(p - q), which
  /// is the self-consistent counterpart of the one-hot support model
  /// behind Eq. (21) and matches the true MGA target mass closely for
  /// GRR.  The exact form is kept for ablation (see
  /// docs/architecture.md, "The subdomain-sum choice").
  bool paper_literal_subdomain_sum = true;

  /// Override of the full malicious frequency vector f~_Y, replacing
  /// the uniform split of Eq. (26) entirely (LDPRecover-KM's centroid
  /// estimate).  Must have domain size when set.
  std::optional<std::vector<double>> malicious_freqs_override;

  /// Ablation switch: skip Step 2's malicious-frequency subtraction
  /// (treat f~_Y as all-zero), keeping only the (1 + eta) rescale and
  /// the simplex refinement.  Used by the ablation scenario.
  bool ablate_no_subtraction = false;

  /// Ablation switch: skip Step 3's KKT simplex refinement and return
  /// the raw Eq. (27)/(31) estimate (may be negative / not sum to 1).
  bool ablate_no_refinement = false;
};

class LdpRecover {
 public:
  /// The protocol reference must outlive this object.
  LdpRecover(const FrequencyProtocol& protocol, RecoverOptions options = {});

  /// Step 1: the estimated malicious frequencies f~'_Y (Eq. (26)) or
  /// f~*_Y (Eq. (30)) for the given poisoned frequencies.
  std::vector<double> EstimateMaliciousFrequencies(
      const std::vector<double>& poisoned) const;

  /// Steps 1-2, before refinement: Eq. (19) applied to the step-1
  /// estimate, i.e. the raw genuine-frequency estimate of
  /// Eq. (27)/(31) (may contain negatives; exposed for tests).
  std::vector<double> EstimateGenuineFrequencies(
      const std::vector<double>& poisoned) const;

  /// Algorithm 1 end to end: recovered frequencies on the simplex.
  std::vector<double> Recover(const std::vector<double>& poisoned) const;

  const RecoverOptions& options() const { return options_; }

 private:
  std::vector<double> EstimateMaliciousUniform(
      const std::vector<double>& poisoned) const;
  std::vector<double> EstimateMaliciousWithTargets() const;

  const FrequencyProtocol& protocol_;
  RecoverOptions options_;
};

}  // namespace ldpr

#endif  // LDPR_RECOVER_LDPRECOVER_H_
