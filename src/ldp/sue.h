// Symmetric Unary Encoding (SUE) — the unary scheme of basic RAPPOR
// (Erlingsson et al. 2014), with p = e^{eps/2}/(e^{eps/2} + 1) and
// q = 1 - p.  Included because the paper's framework (and therefore
// LDPRecover) applies to *any* pure LDP protocol; SUE is the most
// widely deployed unary variant and a natural extra evaluation point
// beyond the paper's GRR/OUE/OLH trio.

#ifndef LDPR_LDP_SUE_H_
#define LDPR_LDP_SUE_H_

#include "ldp/unary.h"

namespace ldpr {

class Sue final : public UnaryEncoding {
 public:
  Sue(size_t d, double epsilon);

  ProtocolKind kind() const override { return ProtocolKind::kSue; }
};

}  // namespace ldpr

#endif  // LDPR_LDP_SUE_H_
