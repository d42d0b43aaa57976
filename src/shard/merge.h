// The merger side of sharded aggregation: validates a
// set of wire lines against one trial's canonical chunk geometry,
// combines the surviving partials in ascending chunk order, and turns
// the merged support counts into the trial's frequency estimates.
//
// Validation ladder (per line):
//   1. DecodePartialLine — torn frames and flipped payload bits die
//      here (frame scan / checksum); counted as rejected lines.
//   2. Spec equality — a partial from a different run is a hard
//      error, not a rejection: mixing runs silently would be the one
//      unrecoverable corruption.
//   3. Geometry — chunk ranges must lie inside the source's chunk
//      space and carry exactly the unit range the chunk arithmetic
//      implies.
//   4. Duplicates — byte-equal re-deliveries of a (source, range) are
//      dropped (at-least-once delivery is fine); same range with
//      different counts is a hard error.  Partial overlaps are hard
//      errors too.
//
// Gaps after all of that are lost chunks.  Strict mode (the default)
// errors on any loss or rejection; MergeOptions::allow_missing
// tolerates them and reports coverage in the stats — the fault
// scenarios use that to measure estimate error as a function of the
// lost-shard fraction.

#ifndef LDPR_SHARD_MERGE_H_
#define LDPR_SHARD_MERGE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "shard/shard_task.h"
#include "shard/wire.h"
#include "util/status.h"

namespace ldpr {

struct MergeOptions {
  /// Tolerate rejected lines and lost chunks, estimating from
  /// whatever coverage survived (fault experiments).  The default is
  /// strict: any loss is an error.
  bool allow_missing = false;
};

/// What the merger saw and kept; every field is deterministic given
/// the input lines.
struct MergeStats {
  size_t lines_total = 0;
  /// Lines DecodePartialLine refused (torn, checksum, bad version).
  size_t lines_rejected = 0;
  /// Records folded into the counts (after duplicate dropping).
  size_t records_used = 0;
  size_t duplicates_dropped = 0;
  uint64_t genuine_chunks_lost = 0;
  uint64_t malicious_chunks_lost = 0;
  /// Units actually covered by merged records; the effective n and m
  /// of the downstream estimate.
  uint64_t users_covered = 0;
  uint64_t reports_covered = 0;
};

struct MergedPartials {
  std::vector<double> genuine_counts;
  std::vector<double> malicious_counts;
  MergeStats stats;
};

/// Merges wire lines against the plan's chunk geometry.  Errors on
/// corruption the options don't allow; zero surviving genuine users
/// is always an error (nothing to estimate from).
StatusOr<MergedPartials> MergeShardPartials(const ShardTaskPlan& plan,
                                            const std::vector<std::string>& lines,
                                            const MergeOptions& options = {});

/// The in-process reference: computes every worker's partials,
/// serializes them through the wire format, and merges strictly —
/// the fault scenarios' clean reference, which the equivalence tests
/// lock against Aggregator::AddAllSharded.
StatusOr<MergedPartials> RunShardTaskInProcess(const ShardTaskPlan& plan,
                                               uint64_t num_workers);

/// The trial outcome computed from merged counts.  Estimates use the
/// *covered* populations (n_eff, m_eff), so losing shards biases the
/// estimate only through the lost mass, not through a wrong
/// normalizer.
struct ShardOutcome {
  std::vector<double> poisoned_freqs;
  std::vector<double> recovered_freqs;
  double poisoned_mse = 0.0;   // vs the dataset's true frequencies
  double recovered_mse = 0.0;  // after LDPRecover at the spec's eta
  uint64_t n_eff = 0;
  uint64_t m_eff = 0;
  /// xxHash64 of the merged count bytes folded to 32 bits — an exact
  /// byte-identity witness small enough to live in a result column.
  double genuine_digest = 0.0;
  double malicious_digest = 0.0;
};

ShardOutcome ComputeShardOutcome(const ShardTaskPlan& plan,
                                 const Dataset& dataset,
                                 const MergedPartials& merged);

}  // namespace ldpr

#endif  // LDPR_SHARD_MERGE_H_
