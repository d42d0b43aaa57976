#include "ldp/harmony.h"

#include "util/logging.h"
#include "util/math_util.h"

namespace ldpr {

Harmony::Harmony(double epsilon) : rr_(/*d=*/2, epsilon) {}

ItemId Harmony::Discretize(double value, Rng& rng) const {
  LDPR_CHECK(value >= -1.0 && value <= 1.0);
  return rng.Bernoulli((1.0 + value) / 2.0) ? kPlusOne : kMinusOne;
}

void Harmony::Perturb(double value, Rng& rng,
                      ReportBatch::Builder& out) const {
  rr_.AppendGenuineReports(Discretize(value, rng), 1, rng, out);
}

double Harmony::EstimateMean(const ReportBatch& reports) const {
  return EstimateMeanSharded(reports, /*shards=*/1);
}

double Harmony::EstimateMeanSharded(const ReportBatch& reports,
                                    size_t shards) const {
  LDPR_CHECK(!reports.empty());
  Aggregator agg(rr_);
  agg.AddAllSharded(reports, shards);
  return MeanFromFrequencies(agg.EstimateFrequencies());
}

double Harmony::MeanFromFrequencies(const std::vector<double>& freqs) {
  LDPR_CHECK(freqs.size() == 2);
  return 2.0 * freqs[kPlusOne] - 1.0;
}

std::vector<double> Harmony::FrequenciesFromMean(double mean) {
  LDPR_CHECK(mean >= -1.0 && mean <= 1.0);
  return {(1.0 + mean) / 2.0, (1.0 - mean) / 2.0};
}

}  // namespace ldpr
