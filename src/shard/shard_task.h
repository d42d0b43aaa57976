// The worker side of sharded aggregation: turns a
// ShardTaskSpec into the canonical chunk decomposition of one
// poisoning trial and computes a worker's partial support counts.
//
// The chunk space is the concatenation of the trial's two streams:
//
//   [0, G)       genuine user chunks (users_per_chunk users each,
//                chunk c perturbs on Rng(DeriveSeed(genuine_seed, c)))
//   [G, G + M)   malicious report chunks (reports_per_chunk crafted
//                reports each)
//
// Worker w of W owns the contiguous range WorkerChunkRange(G+M, w, W)
// and emits at most two PartialRecords — one per source stream it
// touches — with chunk counts accumulated in ascending chunk order.
// Support counts are sums of 1.0's (exact in double far past 2^50),
// so any regrouping of the chunk sums is exact: the merger's output
// is byte-identical to the in-process Aggregator::AddAllSharded /
// SampleSupportCountsSharded paths no matter how chunks were split
// across workers.
//
// RNG discipline mirrors sim/pipeline.cc RunPoisoningTrial exactly:
// the trial Rng(seed) first yields the genuine fan-out seed, then
// instantiates the attack and crafts all m reports in one CraftBatch
// call (CraftMaliciousReports; the trial streams the same reports
// through a chunk instead of keeping them).  Each
// worker builds the whole plan, so each replays the full (serial)
// craft — crafting is a stateful sampler and cannot be entered
// mid-stream; the genuine stream is keyed off genuine_seed alone.

#ifndef LDPR_SHARD_SHARD_TASK_H_
#define LDPR_SHARD_SHARD_TASK_H_

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "data/dataset.h"
#include "ldp/protocol.h"
#include "ldp/report_batch.h"
#include "shard/wire.h"
#include "util/status.h"

namespace ldpr {

/// Contiguous chunk range [first, second) of worker `worker` out of
/// `num_workers` over `total_chunks` chunks (the canonical
/// even-as-possible partition; empty for workers past the chunk
/// count).
std::pair<uint64_t, uint64_t> WorkerChunkRange(uint64_t total_chunks,
                                               uint64_t worker,
                                               uint64_t num_workers);

/// One trial's resolved shard decomposition: the protocol instance,
/// the dataset histogram, the chunk geometry of both streams, and —
/// when the spec carries an attack — the fully crafted malicious
/// batch.  Built identically by every worker and by the in-process
/// reference path from the spec alone.
struct ShardTaskPlan {
  ShardTaskSpec spec;
  std::unique_ptr<FrequencyProtocol> protocol;
  std::vector<uint64_t> item_counts;
  uint64_t n = 0;               // genuine users
  uint64_t m = 0;               // malicious users
  uint64_t genuine_seed = 0;    // keys the genuine chunk fan-out
  uint64_t genuine_chunks = 0;  // G
  uint64_t malicious_chunks = 0;  // M
  /// Builder-mode batch of all m crafted reports (empty when the
  /// attack is none); chunk j aggregates Slice(j*rpc, ...) of it.
  ReportBatch malicious_reports;

  uint64_t total_chunks() const { return genuine_chunks + malicious_chunks; }
};

/// Resolves `spec` against an already-loaded dataset, replaying the
/// trial RNG sequence of RunPoisoningTrial (genuine seed draw, then
/// CraftMaliciousReports' attack and CraftBatch draws).  `dataset.domain_size()`
/// fixes d.  A spec `ldpr run` would reject (ValidateExperimentInputs:
/// epsilon, beta, eta, targets vs d, an empty or degenerate dataset)
/// or a zero chunk size returns InvalidArgument.
StatusOr<ShardTaskPlan> BuildShardTaskPlan(const ShardTaskSpec& spec,
                                           const Dataset& dataset);

/// Partial counts of a single genuine user chunk / malicious report
/// chunk (the unit the worker loop and the equivalence tests share).
std::vector<double> GenuineChunkCounts(const ShardTaskPlan& plan,
                                       uint64_t chunk);
std::vector<double> MaliciousChunkCounts(const ShardTaskPlan& plan,
                                         uint64_t chunk);

/// Computes worker `worker`'s partial records over its canonical
/// chunk range: at most one record per source stream, chunks
/// accumulated in ascending order.
std::vector<PartialRecord> ComputeWorkerPartials(const ShardTaskPlan& plan,
                                                 uint64_t worker,
                                                 uint64_t num_workers);

}  // namespace ldpr

#endif  // LDPR_SHARD_SHARD_TASK_H_
