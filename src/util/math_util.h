// Small numeric helpers shared by the estimator analysis code:
// normal pdf/cdf, Berry-Esseen style bounds, and vector arithmetic on
// frequency vectors.

#ifndef LDPR_UTIL_MATH_UTIL_H_
#define LDPR_UTIL_MATH_UTIL_H_

#include <cstddef>
#include <vector>

namespace ldpr {

/// Standard normal probability density at x.
double NormalPdf(double x);

/// Normal density with the given mean and standard deviation.
double NormalPdf(double x, double mean, double stddev);

/// Standard normal cumulative distribution at x (via erfc).
double NormalCdf(double x);

/// Normal CDF with the given mean and standard deviation.
double NormalCdf(double x, double mean, double stddev);

/// Sum of a vector's entries.
double Sum(const std::vector<double>& v);

/// Elementwise a + b.  Sizes must match.
std::vector<double> Add(const std::vector<double>& a,
                        const std::vector<double>& b);

/// Elementwise a - b.  Sizes must match.
std::vector<double> Subtract(const std::vector<double>& a,
                             const std::vector<double>& b);

/// Scalar multiple c * v.
std::vector<double> Scale(const std::vector<double>& v, double c);

/// Rescales v so it sums to 1.  Requires a positive sum.
std::vector<double> Normalize(const std::vector<double>& v);

/// True when every entry is finite, non-negative, and the vector sums
/// to 1 within `tolerance` — i.e. v lies on the probability simplex.
bool IsProbabilityVector(const std::vector<double>& v,
                         double tolerance = 1e-9);

}  // namespace ldpr

#endif  // LDPR_UTIL_MATH_UTIL_H_
