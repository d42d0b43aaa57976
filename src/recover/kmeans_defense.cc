#include "recover/kmeans_defense.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "recover/ldprecover.h"
#include "recover/simplex_projection.h"
#include "util/logging.h"

namespace ldpr {

namespace {

// TwoMeansCluster's schedule: starts from random row pairs, and the
// Lloyd iteration cap of each.
constexpr size_t kRandomStarts = 4;
constexpr size_t kLloydIterations = 50;

double SquaredDistance(const std::vector<double>& a,
                       const std::vector<double>& b) {
  double total = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    const double diff = a[i] - b[i];
    total += diff * diff;  // lint: fp-order-ok(serial per-row loop)
  }
  return total;
}

std::vector<double> MeanOfRows(const std::vector<std::vector<double>>& rows,
                               const std::vector<uint8_t>& mask,
                               uint8_t which) {
  std::vector<double> mean;
  size_t count = 0;
  for (size_t i = 0; i < rows.size(); ++i) {
    if (mask[i] != which) continue;
    if (mean.empty()) mean.assign(rows[i].size(), 0.0);
    // lint: fp-order-ok(serial row-order loop; never sharded)
    for (size_t j = 0; j < rows[i].size(); ++j) mean[j] += rows[i][j];
    ++count;
  }
  if (count == 0) return {};
  for (double& x : mean) x /= static_cast<double>(count);
  return mean;
}

}  // namespace

std::vector<uint8_t> TwoMeansCluster(
    const std::vector<std::vector<double>>& rows, Rng& rng) {
  LDPR_CHECK(rows.size() >= 2);
  const size_t n = rows.size();

  std::vector<uint8_t> best_labels(n, 0);
  double best_inertia = std::numeric_limits<double>::infinity();

  for (size_t start = 0; start < kRandomStarts; ++start) {
    // Init centroids from two distinct random rows.
    size_t i0 = rng.UniformU64(n);
    size_t i1 = rng.UniformU64(n - 1);
    if (i1 >= i0) ++i1;
    std::vector<double> c0 = rows[i0];
    std::vector<double> c1 = rows[i1];

    std::vector<uint8_t> labels(n, 0);
    for (size_t iter = 0; iter < kLloydIterations; ++iter) {
      bool changed = false;
      for (size_t i = 0; i < n; ++i) {
        const uint8_t label =
            SquaredDistance(rows[i], c1) < SquaredDistance(rows[i], c0) ? 1
                                                                        : 0;
        if (label != labels[i]) {
          labels[i] = label;
          changed = true;
        }
      }
      std::vector<double> m0 = MeanOfRows(rows, labels, 0);
      std::vector<double> m1 = MeanOfRows(rows, labels, 1);
      if (!m0.empty()) c0 = std::move(m0);
      if (!m1.empty()) c1 = std::move(m1);
      if (!changed) break;
    }

    double inertia = 0.0;
    for (size_t i = 0; i < n; ++i)
      // lint: fp-order-ok(serial row-order loop)
      inertia += SquaredDistance(rows[i], labels[i] ? c1 : c0);
    if (inertia < best_inertia) {
      best_inertia = inertia;
      best_labels = labels;
    }
  }

  // Canonicalize: label 1 = minority cluster.
  size_t ones = 0;
  for (uint8_t l : best_labels) ones += l;
  if (ones * 2 > n) {
    for (uint8_t& l : best_labels) l = static_cast<uint8_t>(1 - l);
  }
  return best_labels;
}

KMeansPartition PartitionSupportCounts(const FrequencyProtocol& protocol,
                                       const ReportBatch& reports,
                                       const KMeansDefenseOptions& options,
                                       Rng& rng) {
  LDPR_CHECK(options.sample_rate > 0.0 && options.sample_rate <= 0.5);
  const size_t n = reports.size();
  const size_t num_subsets = std::max<size_t>(
      2, static_cast<size_t>(std::llround(1.0 / options.sample_rate)));
  // Every subset needs a user to estimate from.
  LDPR_CHECK(n >= num_subsets);

  // Shuffle, then deal user order[i] to subset i % num_subsets.
  std::vector<uint32_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = static_cast<uint32_t>(i);
  for (size_t i = n; i > 1; --i)
    std::swap(order[i - 1], order[rng.UniformU64(i)]);

  // Per-subset support counts: each subset's rows are gathered into
  // kBatchFlushReports-sized tiles and folded through the batched
  // kernel.
  KMeansPartition partition;
  partition.subset_counts.assign(
      num_subsets, std::vector<double>(protocol.domain_size(), 0.0));
  partition.subset_sizes.reserve(num_subsets);
  ReportBatch tile;
  for (size_t s = 0; s < num_subsets; ++s) {
    for (size_t i = s; i < n; i += num_subsets) {
      tile.AppendFrom(reports, order[i]);
      if (tile.size() < kBatchFlushReports) continue;
      protocol.AccumulateSupportsBatch(tile, partition.subset_counts[s]);
      tile.Clear();
    }
    protocol.AccumulateSupportsBatch(tile, partition.subset_counts[s]);
    tile.Clear();
    partition.subset_sizes.push_back((n - s + num_subsets - 1) / num_subsets);
  }
  return partition;
}

KMeansDefenseResult RunKMeansDefense(const FrequencyProtocol& protocol,
                                     const KMeansPartition& partition,
                                     Rng& rng) {
  const size_t num_subsets = partition.subset_counts.size();
  LDPR_CHECK(num_subsets >= 2);
  LDPR_CHECK(partition.subset_sizes.size() == num_subsets);

  KMeansDefenseResult result;
  result.subset_estimates.reserve(num_subsets);
  for (size_t s = 0; s < num_subsets; ++s) {
    LDPR_CHECK(partition.subset_sizes[s] > 0);
    result.subset_estimates.push_back(protocol.EstimateFrequencies(
        partition.subset_counts[s], partition.subset_sizes[s]));
  }

  result.subset_is_malicious = TwoMeansCluster(result.subset_estimates, rng);

  size_t malicious_subsets = 0;
  for (uint8_t b : result.subset_is_malicious) malicious_subsets += b;
  result.malicious_subset_fraction =
      static_cast<double>(malicious_subsets) / static_cast<double>(num_subsets);

  // Re-aggregate over the *users* of each cluster — the defense keeps
  // only the genuine cluster's reports — and over all users, by
  // summing the subsets' integer support counts (exact in any order).
  Aggregator genuine(protocol);
  Aggregator malicious(protocol);
  Aggregator population(protocol);
  for (size_t s = 0; s < num_subsets; ++s) {
    Aggregator& sink = result.subset_is_malicious[s] ? malicious : genuine;
    sink.AddSampledCounts(partition.subset_counts[s],
                          partition.subset_sizes[s]);
    population.AddSampledCounts(partition.subset_counts[s],
                                partition.subset_sizes[s]);
  }
  LDPR_CHECK(genuine.report_count() > 0);
  result.genuine_estimate = genuine.EstimateFrequencies();
  if (malicious.report_count() > 0)
    result.malicious_estimate = malicious.EstimateFrequencies();
  result.population_counts = population.support_counts();
  result.population_size = population.report_count();
  return result;
}

KMeansDefenseResult RunKMeansDefense(const FrequencyProtocol& protocol,
                                     const ReportBatch& reports,
                                     const KMeansDefenseOptions& options,
                                     Rng& rng) {
  return RunKMeansDefense(
      protocol, PartitionSupportCounts(protocol, reports, options, rng), rng);
}

KMeansDefenseResult RunKMeansDefense(const FrequencyProtocol& protocol,
                                     const std::vector<Report>& reports,
                                     const KMeansDefenseOptions& options,
                                     Rng& rng) {
  ReportBatch batch;
  for (const Report& report : reports) batch.Append(report);
  return RunKMeansDefense(protocol, batch, options, rng);
}

std::vector<double> LdpRecoverKm(const FrequencyProtocol& protocol,
                                 const std::vector<Report>& reports,
                                 const KMeansDefenseOptions& options,
                                 double eta, Rng& rng) {
  ReportBatch batch;
  for (const Report& report : reports) batch.Append(report);
  return LdpRecoverKm(protocol, batch, options, eta, rng);
}

std::vector<double> LdpRecoverKm(const FrequencyProtocol& protocol,
                                 const ReportBatch& reports,
                                 const KMeansDefenseOptions& options,
                                 double eta, Rng& rng) {
  const KMeansDefenseResult defense =
      RunKMeansDefense(protocol, reports, options, rng);

  // Full-population (poisoned) estimate.
  const std::vector<double> poisoned = protocol.EstimateFrequencies(
      defense.population_counts, defense.population_size);

  if (defense.malicious_estimate.empty()) {
    // Clustering found no malicious minority: fall back to projecting
    // the poisoned estimate.
    return ProjectToSimplexKkt(poisoned);
  }

  // The minority centroid is the learnt malicious frequency vector:
  // under IPA the crafted reports are honestly perturbed, so the
  // minority cluster's LDP estimate plays the role Eq. (26)'s uniform
  // split plays in the general attack.
  RecoverOptions opts;
  opts.eta = eta;
  opts.malicious_freqs_override = defense.malicious_estimate;
  const LdpRecover recover(protocol, opts);
  return recover.Recover(poisoned);
}

}  // namespace ldpr
