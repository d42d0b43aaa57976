#include "util/math_util.h"

#include <cmath>

#include "util/logging.h"

namespace ldpr {

double Sum(const std::vector<double>& v) {
  double total = 0.0;
  for (double x : v) total += x;
  return total;
}

std::vector<double> Add(const std::vector<double>& a,
                        const std::vector<double>& b) {
  LDPR_CHECK(a.size() == b.size());
  std::vector<double> out(a.size());
  for (size_t i = 0; i < a.size(); ++i) out[i] = a[i] + b[i];
  return out;
}

bool IsProbabilityVector(const std::vector<double>& v, double tolerance) {
  double total = 0.0;
  for (double x : v) {
    if (!std::isfinite(x) || x < -tolerance) return false;
    total += x;
  }
  return std::fabs(total - 1.0) <= tolerance * static_cast<double>(v.size());
}

}  // namespace ldpr
