// Optimized Unary Encoding (OUE), Wang et al. 2017;
// Section III-B of the paper, Eqs. (5)-(7).
//
// The unary-encoding member with (p, q) = (1/2, 1/(e^eps + 1)),
// which minimizes the estimation variance among unary schemes.
// Shared mechanics live in ldp/unary.h.

#ifndef LDPR_LDP_OUE_H_
#define LDPR_LDP_OUE_H_

#include "ldp/unary.h"

namespace ldpr {

class Oue final : public UnaryEncoding {
 public:
  Oue(size_t d, double epsilon);

  ProtocolKind kind() const override { return ProtocolKind::kOue; }

  /// Eq. (7): Var[Phi(v)] = n * 4 e^eps / (e^eps - 1)^2 — the paper's
  /// (frequency-independent) form; the exact unary variance is
  /// available through UnaryEncoding::CountVariance's formula with
  /// f-dependence, which Eq. (7) upper-approximates at f ~ 0.
  double CountVariance(double f, size_t n) const override;
};

}  // namespace ldpr

#endif  // LDPR_LDP_OUE_H_
