// Binary Local Hashing (BLH) — OLH with the hash range fixed to
// g = 2 (Bassily & Smith 2015 style).  Strictly dominated by OLH's
// optimized g in estimation variance, but commonly deployed for its
// single-bit reports; included as an extra pure protocol the paper's
// recovery framework covers.
//
// Batched aggregation is inherited wholesale from OlhBase, and the
// closed-form sampler behind the whole-population and sharded
// samplers is FrequencyProtocol's default law with q = 1/2.

#ifndef LDPR_LDP_BLH_H_
#define LDPR_LDP_BLH_H_

#include "ldp/olh.h"

namespace ldpr {

class Blh final : public OlhBase {
 public:
  Blh(size_t d, double epsilon) : OlhBase(d, epsilon, /*g=*/2) {}

  ProtocolKind kind() const override { return ProtocolKind::kBlh; }
};

}  // namespace ldpr

#endif  // LDPR_LDP_BLH_H_
