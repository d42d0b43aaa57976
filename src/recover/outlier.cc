#include "recover/outlier.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "util/logging.h"
#include "util/metrics.h"

namespace ldpr {

namespace {
// The detector's constants, documented at DetectFrequencyOutliers.
constexpr double kZThreshold = 3.0;
constexpr size_t kMinHistory = 3;
constexpr double kStddevFloor = 1e-6;
}  // namespace

std::vector<ItemId> DetectFrequencyOutliers(
    const std::vector<std::vector<double>>& history,
    const std::vector<double>& current) {
  LDPR_CHECK(!current.empty());
  std::vector<ItemId> outliers;
  if (history.size() < kMinHistory) return outliers;
  for (const auto& epoch : history) LDPR_CHECK(epoch.size() == current.size());

  for (size_t v = 0; v < current.size(); ++v) {
    RunningStat stat;
    for (const auto& epoch : history) stat.Add(epoch[v]);
    const double sd = std::max(stat.stddev(), kStddevFloor);
    const double z = (current[v] - stat.mean()) / sd;
    if (z > kZThreshold) outliers.push_back(static_cast<ItemId>(v));
  }
  return outliers;
}

std::vector<ItemId> TopFrequencyGainers(const std::vector<double>& baseline,
                                        const std::vector<double>& current,
                                        size_t k) {
  LDPR_CHECK(baseline.size() == current.size());
  LDPR_CHECK(k >= 1);
  k = std::min(k, current.size());
  std::vector<ItemId> order(current.size());
  std::iota(order.begin(), order.end(), 0u);
  std::partial_sort(order.begin(), order.begin() + k, order.end(),
                    [&](ItemId a, ItemId b) {
                      return (current[a] - baseline[a]) >
                             (current[b] - baseline[b]);
                    });
  order.resize(k);
  return order;
}

}  // namespace ldpr
