// Clip-and-renormalize, a standard LDP post-processing baseline
// (Wang et al., NDSS 2020), used as an ablation point against
// LDPRecover's CI refinement.  Its sibling Norm-Sub is exactly the KKT
// projection of recover/simplex_projection.h.  Both enforce the
// simplex constraints but neither subtracts malicious mass, so under
// poisoning they retain the attack's bias.

#ifndef LDPR_RECOVER_NORMALIZATION_H_
#define LDPR_RECOVER_NORMALIZATION_H_

#include <vector>

namespace ldpr {

/// Clip-and-renormalize: clamps negatives to zero then rescales to
/// sum 1.  Falls back to uniform when everything clamps to zero.
std::vector<double> ClipAndRenormalize(const std::vector<double>& estimate);

}  // namespace ldpr

#endif  // LDPR_RECOVER_NORMALIZATION_H_
