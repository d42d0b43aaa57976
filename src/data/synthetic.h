// Synthetic dataset generators, including the documented stand-ins
// for the paper's two real-world datasets (see docs/architecture.md,
// "Synthetic datasets"):
//
//   IPUMS  — U.S. census "city" attribute, d = 102, n = 389,894;
//   Fire   — SF fire-department "unit ID" under Alarms, d = 490,
//            n = 667,574.
//
// Neither raw dataset ships offline, so MakeIpumsLike/MakeFireLike
// generate Zipf histograms with the same (d, n).  The recovery and
// attack mathematics are distribution-agnostic; what matters for the
// reproduced figures is a skewed histogram with a long tail at the
// same scale, which these provide deterministically.

#ifndef LDPR_DATA_SYNTHETIC_H_
#define LDPR_DATA_SYNTHETIC_H_

#include "data/dataset.h"

namespace ldpr {

/// n users over d items with Zipf(s) frequencies.  `shuffle_seed`
/// permutes which item gets which rank so target items are not
/// trivially the heaviest; 0 keeps rank order.
Dataset MakeZipfDataset(std::string name, size_t d, uint64_t n, double s,
                        uint64_t shuffle_seed = 0);

/// Uniform histogram: n users over d items.
Dataset MakeUniformDataset(std::string name, size_t d, uint64_t n);

/// IPUMS stand-in: d = 102, n = 389,894, Zipf s = 1.05 (census city
/// populations are classically near-Zipf with exponent ~1), ranks
/// shuffled with seed 17.
Dataset MakeIpumsLike();

/// Fire stand-in: d = 490, n = 667,574, Zipf s = 0.8 (dispatch unit
/// loads are skewed but flatter than city populations), ranks
/// shuffled with seed 23.
Dataset MakeFireLike();

}  // namespace ldpr

#endif  // LDPR_DATA_SYNTHETIC_H_
