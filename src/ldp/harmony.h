// Harmony-style mean estimation under LDP (Nguyen et al. 2016),
// Section VII-A of the paper.
//
// Harmony discretizes a numeric value x in [-1, 1] into the binary
// item {+1, -1} — reporting +1 with probability (1 + x)/2 — and then
// applies binary randomized response (which is exactly GRR with
// d = 2).  The server's mean estimate is a linear function of the
// estimated frequency of the "+1" item.  Because the pipeline reduces
// to frequency estimation, LDPRecover applies verbatim: poisoned
// means are repaired by recovering the underlying binary frequency
// vector.  examples/mean_estimation.cc demonstrates this end to end.

#ifndef LDPR_LDP_HARMONY_H_
#define LDPR_LDP_HARMONY_H_

#include <memory>
#include <vector>

#include "ldp/grr.h"

namespace ldpr {

class Harmony {
 public:
  /// Binary item indices in the induced frequency-estimation problem.
  static constexpr ItemId kPlusOne = 0;
  static constexpr ItemId kMinusOne = 1;

  explicit Harmony(double epsilon);

  /// The underlying binary frequency protocol (GRR with d = 2, i.e.
  /// Warner's randomized response).  Attacks and recovery operate on
  /// this protocol directly.
  const Grr& protocol() const { return rr_; }

  /// Client side: discretizes `value` in [-1, 1], perturbs, and
  /// appends the report to `out`.
  void Perturb(double value, Rng& rng, ReportBatch::Builder& out) const;

  /// Discretization alone (for tests): +1 item with prob (1+value)/2.
  ItemId Discretize(double value, Rng& rng) const;

  /// Server side: estimated mean from the reports.
  double EstimateMean(const ReportBatch& reports) const;

  /// Same estimate, with support aggregation sharded across `shards`
  /// pool workers (0 = auto).  Byte-identical to EstimateMean at any
  /// shard count (see Aggregator::AddAllSharded).
  double EstimateMeanSharded(const ReportBatch& reports, size_t shards) const;

  /// Converts an estimated binary frequency vector
  /// [f(+1), f(-1)] into a mean estimate: 2*f(+1) - 1.
  ///
  /// This is the hook LDPRecover uses — recover the frequencies, then
  /// map back to the mean.
  static double MeanFromFrequencies(const std::vector<double>& freqs);

  /// The frequency vector induced by a population mean:
  /// [ (1+mean)/2, (1-mean)/2 ].
  static std::vector<double> FrequenciesFromMean(double mean);

 private:
  Grr rr_;
};

}  // namespace ldpr

#endif  // LDPR_LDP_HARMONY_H_
