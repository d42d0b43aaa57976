// k-means clustering defense and LDPRecover-KM (Section VII-B of the
// paper).
//
// Under *input* poisoning the crafted data passes through the genuine
// perturbation algorithm, so the closed-form malicious statistics of
// Eq. (21) no longer apply.  The k-means defense (after Li et al. and
// Du et al.) samples many user subsets, estimates a frequency vector
// per subset, and 2-means-clusters those vectors: the larger cluster
// is declared genuine.  The plain defense estimates frequencies from
// the genuine cluster only; LDPRecover-KM additionally *learns* the
// malicious statistics (the malicious frequency vector and the
// malicious/genuine ratio) from the minority cluster and feeds them
// into LDPRecover's constraint-inference step, recovering strictly
// more accurate frequencies (Figure 9).
//
// The defense runs in two steps.  PartitionSupportCounts draws the
// random partition of the reports and reduces it to per-subset
// support counts — the only pass over the reports.  The counts entry
// point of RunKMeansDefense then works on those k count vectors
// alone: it clusters the per-subset estimates and re-aggregates each
// cluster by summing its subsets' counts.  The sum over all subsets is
// the full-population support count, exactly (integer-valued
// doubles), so LDPRecover-KM and fig9's "Before" column read the
// poisoned aggregate off the defense instead of aggregating every
// report again.

#ifndef LDPR_RECOVER_KMEANS_DEFENSE_H_
#define LDPR_RECOVER_KMEANS_DEFENSE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "ldp/protocol.h"
#include "util/random.h"

namespace ldpr {

struct KMeansDefenseOptions {
  /// Fraction of users in each subset (the paper's xi): users are
  /// partitioned into ~1/xi disjoint subsets.  Smaller xi gives the
  /// clustering more rows to work with but noisier per-subset
  /// estimates.
  double sample_rate = 0.1;
};

/// A uniformly random partition of the users into disjoint subsets,
/// reduced to what the defense consumes.
struct KMeansPartition {
  /// Per-subset support counts C_s(v) (#subsets x d).
  std::vector<std::vector<double>> subset_counts;
  /// Users per subset; every entry is positive.
  std::vector<size_t> subset_sizes;
};

struct KMeansDefenseResult {
  /// Per-subset frequency estimates (#subsets x d).
  std::vector<std::vector<double>> subset_estimates;
  /// 1 iff the subset landed in the minority (malicious) cluster.
  std::vector<uint8_t> subset_is_malicious;
  /// Aggregate estimate over the users of the genuine-cluster subsets
  /// — the plain k-means defense's output.  The minority cluster's
  /// users are discarded, which is the defense's data-loss cost.
  std::vector<double> genuine_estimate;
  /// Aggregate estimate over the users of the minority cluster (empty
  /// when the clustering kept everything).
  std::vector<double> malicious_estimate;
  /// Fraction of subsets labelled malicious.
  double malicious_subset_fraction = 0.0;
  /// Full-population support counts: the sum of every subset's
  /// counts, equal bit for bit to aggregating all the reports
  /// (Aggregator::AddAll).
  std::vector<double> population_counts;
  /// Users over all subsets.
  size_t population_size = 0;
};

/// Basic 2-means over row vectors: 4 starts from random row pairs, up
/// to 50 Lloyd iterations each, best inertia wins.  Returns per-row
/// cluster labels (0/1); label 1 is the *smaller* cluster.  Exposed
/// for tests.
std::vector<uint8_t> TwoMeansCluster(
    const std::vector<std::vector<double>>& rows, Rng& rng);

/// Step one: shuffles the users (one Fisher-Yates pass on `rng`),
/// deals them round-robin into max(2, round(1/xi)) subsets, and sums
/// each subset's support counts through the batched kernel.
/// Requires at least as many reports as subsets and xi in (0, 0.5].
KMeansPartition PartitionSupportCounts(const FrequencyProtocol& protocol,
                                       const ReportBatch& reports,
                                       const KMeansDefenseOptions& options,
                                       Rng& rng);

/// Step two, the counts entry point: 2-means over the per-subset
/// estimates (`rng` draws the random starts) and re-aggregation of each
/// cluster from its subsets' counts.
KMeansDefenseResult RunKMeansDefense(const FrequencyProtocol& protocol,
                                     const KMeansPartition& partition,
                                     Rng& rng);

/// Both steps over the given reports.  The protocol reference must
/// outlive the call.
KMeansDefenseResult RunKMeansDefense(const FrequencyProtocol& protocol,
                                     const ReportBatch& reports,
                                     const KMeansDefenseOptions& options,
                                     Rng& rng);

/// LDPRecover-KM: integrates the defense's learnt malicious vector
/// into LDPRecover (malicious-frequency override + KKT refinement).
/// The poisoned estimate comes from the defense's population counts,
/// so the reports are aggregated once.  `eta` follows the usual
/// RecoverOptions semantics.
std::vector<double> LdpRecoverKm(const FrequencyProtocol& protocol,
                                 const ReportBatch& reports,
                                 const KMeansDefenseOptions& options,
                                 double eta, Rng& rng);

/// Pack `reports` into a batch and call the overloads above.
/// Adapters for the AoS fig9 replay in perf/src/replay.cc; delete
/// with it.
KMeansDefenseResult RunKMeansDefense(const FrequencyProtocol& protocol,
                                     const std::vector<Report>& reports,
                                     const KMeansDefenseOptions& options,
                                     Rng& rng);
std::vector<double> LdpRecoverKm(const FrequencyProtocol& protocol,
                                 const std::vector<Report>& reports,
                                 const KMeansDefenseOptions& options,
                                 double eta, Rng& rng);

}  // namespace ldpr

#endif  // LDPR_RECOVER_KMEANS_DEFENSE_H_
