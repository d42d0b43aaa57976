#include "recover/normalization.h"

#include "util/logging.h"
#include "util/math_util.h"

namespace ldpr {

std::vector<double> ClipAndRenormalize(const std::vector<double>& estimate) {
  LDPR_CHECK(!estimate.empty());
  std::vector<double> out(estimate.size());
  for (size_t v = 0; v < estimate.size(); ++v)
    out[v] = estimate[v] > 0.0 ? estimate[v] : 0.0;
  const double total = Sum(out);
  if (total <= 0.0) {
    // Degenerate input: no information, return uniform.
    const double u = 1.0 / static_cast<double>(out.size());
    for (double& x : out) x = u;
    return out;
  }
  for (double& x : out) x /= total;
  return out;
}

}  // namespace ldpr
