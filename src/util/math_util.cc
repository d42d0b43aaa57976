#include "util/math_util.h"

#include <cmath>

#include "util/logging.h"

namespace ldpr {

namespace {
constexpr double kInvSqrt2Pi = 0.3989422804014326779399461;
constexpr double kInvSqrt2 = 0.7071067811865475244008444;
}  // namespace

double NormalPdf(double x) { return kInvSqrt2Pi * std::exp(-0.5 * x * x); }

double NormalPdf(double x, double mean, double stddev) {
  LDPR_CHECK(stddev > 0.0);
  const double z = (x - mean) / stddev;
  return NormalPdf(z) / stddev;
}

double NormalCdf(double x) { return 0.5 * std::erfc(-x * kInvSqrt2); }

double NormalCdf(double x, double mean, double stddev) {
  LDPR_CHECK(stddev > 0.0);
  return NormalCdf((x - mean) / stddev);
}

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

std::vector<double> Subtract(const std::vector<double>& a,
                             const std::vector<double>& b) {
  LDPR_CHECK(a.size() == b.size());
  std::vector<double> out(a.size());
  for (size_t i = 0; i < a.size(); ++i) out[i] = a[i] - b[i];
  return out;
}

std::vector<double> Scale(const std::vector<double>& v, double c) {
  std::vector<double> out(v.size());
  for (size_t i = 0; i < v.size(); ++i) out[i] = c * v[i];
  return out;
}

std::vector<double> Normalize(const std::vector<double>& v) {
  const double total = Sum(v);
  LDPR_CHECK(total > 0.0);
  return Scale(v, 1.0 / total);
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
