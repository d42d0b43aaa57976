// Deterministic fault injection for the sharded aggregation pipeline.
//
// A FaultSpec names the failure modes of one delivery — killed
// workers, stragglers that miss the merge deadline, duplicate
// partial deliveries, torn (truncated) writes, and payload bit flips
// — as fractions of the worker fleet plus a seed.  MakeFaultPlan
// resolves the fractions into per-worker assignments with
// Rng(DeriveSeed(seed, stream)) draws only, so a (spec, fleet size)
// pair always yields the same plan; the fault scenarios rely on that
// to sweep loss fractions reproducibly.
//
// ApplyFaultPlan operates on the *serialized* wire lines each worker
// produced, not on in-memory records: torn writes and bit flips
// damage real bytes, so the merger's frame scan and checksum are
// genuinely exercised, and duplicate delivery re-sends byte-equal
// lines the merger must deduplicate idempotently.

#ifndef LDPR_SHARD_FAULT_H_
#define LDPR_SHARD_FAULT_H_

#include <cstdint>
#include <string>
#include <vector>

namespace ldpr {

struct FaultSpec {
  /// Fraction of workers whose output never arrives (process killed).
  double kill_fraction = 0.0;
  /// Fraction of workers whose output arrives after the merge
  /// deadline — same observable effect as a kill, tallied separately.
  double straggler_fraction = 0.0;
  /// Fraction of workers whose lines are delivered twice.
  double duplicate_fraction = 0.0;
  /// Fraction of workers whose first line is truncated mid-payload.
  double torn_fraction = 0.0;
  /// Fraction of workers with one payload bit flipped in their first
  /// line (always caught by the wire checksum).
  double bitflip_fraction = 0.0;
  uint64_t seed = 0;
};

enum class WorkerFate {
  kHealthy,
  kKilled,
  kStraggler,
};

/// The resolved per-worker assignment.  Kill/straggler picks are
/// disjoint (drawn off one shuffled worker order), as are
/// duplicate/torn/bitflip picks among the surviving deliveries — so
/// every counted fault is observable on its own line.
struct FaultPlan {
  std::vector<WorkerFate> fates;
  std::vector<bool> duplicated;
  std::vector<bool> torn;
  std::vector<bool> bitflipped;
};

FaultPlan MakeFaultPlan(const FaultSpec& spec, uint64_t num_workers);

/// What arrived at the merger, plus the tally of injected faults.
struct FaultyDelivery {
  std::vector<std::string> lines;
  size_t workers_killed = 0;
  size_t workers_straggling = 0;
  size_t lines_duplicated = 0;
  size_t lines_torn = 0;
  size_t lines_flipped = 0;
};

/// Applies the plan to each worker's serialized lines
/// (worker_lines[w] = worker w's wire output, in emit order).
FaultyDelivery ApplyFaultPlan(const FaultPlan& plan,
                              const std::vector<std::vector<std::string>>&
                                  worker_lines);

}  // namespace ldpr

#endif  // LDPR_SHARD_FAULT_H_
