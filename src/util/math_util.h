// Small helpers on frequency vectors: sums, elementwise addition and
// the probability-simplex check.

#ifndef LDPR_UTIL_MATH_UTIL_H_
#define LDPR_UTIL_MATH_UTIL_H_

#include <cstddef>
#include <vector>

namespace ldpr {

/// Sum of a vector's entries.
double Sum(const std::vector<double>& v);

/// Elementwise a + b.  Sizes must match.
std::vector<double> Add(const std::vector<double>& a,
                        const std::vector<double>& b);

/// True when every entry is finite, non-negative, and the vector sums
/// to 1 within `tolerance` — i.e. v lies on the probability simplex.
bool IsProbabilityVector(const std::vector<double>& v,
                         double tolerance = 1e-9);

}  // namespace ldpr

#endif  // LDPR_UTIL_MATH_UTIL_H_
