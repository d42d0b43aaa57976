#include "util/metrics.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"

namespace ldpr {

double Mse(const std::vector<double>& a, const std::vector<double>& b) {
  LDPR_CHECK(!a.empty());
  LDPR_CHECK(a.size() == b.size());
  double total = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    const double diff = a[i] - b[i];
    total += diff * diff;
  }
  return total / static_cast<double>(a.size());
}

double L1Distance(const std::vector<double>& a, const std::vector<double>& b) {
  LDPR_CHECK(a.size() == b.size());
  double total = 0.0;
  for (size_t i = 0; i < a.size(); ++i) total += std::fabs(a[i] - b[i]);
  return total;
}

double L2Distance(const std::vector<double>& a, const std::vector<double>& b) {
  LDPR_CHECK(a.size() == b.size());
  double total = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    const double diff = a[i] - b[i];
    total += diff * diff;
  }
  return std::sqrt(total);
}

double LInfDistance(const std::vector<double>& a,
                    const std::vector<double>& b) {
  LDPR_CHECK(a.size() == b.size());
  double worst = 0.0;
  for (size_t i = 0; i < a.size(); ++i)
    worst = std::max(worst, std::fabs(a[i] - b[i]));
  return worst;
}

double FrequencyGain(const std::vector<double>& genuine,
                     const std::vector<double>& after,
                     const std::vector<uint32_t>& targets) {
  LDPR_CHECK(genuine.size() == after.size());
  double gain = 0.0;
  for (uint32_t t : targets) {
    LDPR_CHECK(t < genuine.size());
    gain += after[t] - genuine[t];
  }
  return gain;
}

void RunningStat::Add(double x) {
  ++count_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

double RunningStat::variance() const {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_ - 1);
}

double RunningStat::stddev() const { return std::sqrt(variance()); }

}  // namespace ldpr
