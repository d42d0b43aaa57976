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
  /// Lloyd iterations per restart.
  size_t max_iterations = 50;
  /// k-means restarts (best inertia wins).
  size_t restarts = 4;
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
};

/// Basic 2-means over row vectors.  Returns per-row cluster labels
/// (0/1); label 1 is the *smaller* cluster.  Exposed for tests.
std::vector<uint8_t> TwoMeansCluster(
    const std::vector<std::vector<double>>& rows, size_t max_iterations,
    size_t restarts, Rng& rng);

/// Runs the subset-sampling + clustering defense over the given
/// reports.  The protocol reference must outlive the call.
KMeansDefenseResult RunKMeansDefense(const FrequencyProtocol& protocol,
                                     const ReportBatch& reports,
                                     const KMeansDefenseOptions& options,
                                     Rng& rng);

/// LDPRecover-KM: integrates the defense's learnt malicious vector
/// into LDPRecover (malicious-frequency override + KKT refinement).
/// `eta` follows the usual RecoverOptions semantics.
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
