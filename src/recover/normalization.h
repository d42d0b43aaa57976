// Standard LDP post-processing baselines (Wang et al., NDSS 2020),
// used as ablation points against LDPRecover's CI refinement: both
// enforce the simplex constraints but neither subtracts malicious
// mass, so under poisoning they retain the attack's bias.

#ifndef LDPR_RECOVER_NORMALIZATION_H_
#define LDPR_RECOVER_NORMALIZATION_H_

#include <vector>

namespace ldpr {

/// Clip-and-renormalize: clamps negatives to zero then rescales to
/// sum 1.  Falls back to uniform when everything clamps to zero.
std::vector<double> ClipAndRenormalize(const std::vector<double>& estimate);

/// Norm-Sub: additive shift + clamp so the result is non-negative and
/// sums to 1.  This is exactly the KKT projection of
/// recover/simplex_projection.h and is provided under its
/// literature name for discoverability.
std::vector<double> NormSub(const std::vector<double>& estimate);

}  // namespace ldpr

#endif  // LDPR_RECOVER_NORMALIZATION_H_
