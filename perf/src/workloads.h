// The benchmark's named workloads: which scenarios run, at which
// scale, trial count and thread count, and why each was chosen
// (perf/METRICS.md has the full rationale and the metric map).

#ifndef LDPR_PERF_WORKLOADS_H_
#define LDPR_PERF_WORKLOADS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "runner/registry.h"

namespace ldpr {
namespace perf {

struct Workload {
  std::string name;
  std::vector<std::string> scenarios;
  double scale = 1.0;
  size_t trials = 1;
  /// Fixed per workload; capped at the machine's core count.
  size_t threads = 1;
};

const std::vector<Workload>& AllWorkloads();

/// nullptr when `name` is not a workload.
const Workload* FindWorkload(const std::string& name);

/// The scale every workload runs at in the smoke test.
inline constexpr double kSmokeScale = 0.01;

/// Reference trees are recorded for this many scenario seeds; the
/// workload seed n runs scenario seed ScenarioSeed(n).
inline constexpr uint64_t kReferenceSeeds = 10;

/// Scenario seed of workload seed `seed`: the spec default seed
/// offset by seed mod kReferenceSeeds, so every workload seed
/// has a recorded reference tree.
uint64_t ScenarioSeed(uint64_t seed);

/// Simulated users (genuine plus malicious) summed over every trial
/// of `scenario` at `scale` and `trials`; streaming scenarios count
/// the reports their stream engines ingest, shard scenarios the users
/// behind every task plan.  Independent of the seed.
StatusOr<uint64_t> ScenarioUsers(const Scenario& scenario, double scale,
                                 size_t trials);

}  // namespace perf
}  // namespace ldpr

#endif  // LDPR_PERF_WORKLOADS_H_
