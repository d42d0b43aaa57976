#include "workloads.h"

#include <map>
#include <tuple>

#include "runner/scenario_runner.h"
#include "sim/pipeline.h"
#include "sim/scenario_spec.h"

namespace ldpr {
namespace perf {

const std::vector<Workload>& AllWorkloads() {
  static const std::vector<Workload> workloads = {
      {"paper_grid", {"table1", "fig3", "fig4", "fig7", "fig10"}, 1.0, 1, 4},
      {"input_poisoning", {"fig8", "fig9"}, 0.2, 1, 4},
      {"domain_sweep", {"scaling_d", "scaling_n", "ext_protocols"}, 1.0, 1, 1},
      {"stream_shard",
       {"streaming_equiv", "streaming_wave", "streaming_ramp",
        "streaming_drift", "shard_fault_loss", "shard_fault_mixed"},
       0.2,
       1,
       4},
  };
  return workloads;
}

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& workload : AllWorkloads()) {
    if (workload.name == name) return &workload;
  }
  return nullptr;
}

uint64_t ScenarioSeed(uint64_t seed) {
  return ScenarioDefaults{}.seed + seed % kReferenceSeeds;
}

StatusOr<uint64_t> ScenarioUsers(const Scenario& scenario, double scale,
                                 size_t trials) {
  const ScenarioSpec& spec = scenario.spec;
  // Resolved user counts by (dataset, d override, n override).
  std::map<std::tuple<std::string, size_t, uint64_t>, uint64_t> sizes;
  const auto users_of = [&](const std::string& name, size_t d,
                            uint64_t n) -> StatusOr<uint64_t> {
    const auto key = std::make_tuple(name, d, n);
    const auto it = sizes.find(key);
    if (it != sizes.end()) return it->second;
    auto dataset = ResolveBenchDataset(name, scale, d, n);
    if (!dataset.ok()) return dataset.status();
    sizes[key] = dataset->num_users();
    return dataset->num_users();
  };

  if (!spec.custom) {
    auto lowered = LowerScenario(spec, trials, spec.defaults.seed);
    if (!lowered.ok()) return lowered.status();
    uint64_t users = 0;
    for (const LoweredTable& table : lowered->tables) {
      for (const LoweredRow& row : table.rows) {
        auto n = users_of(spec.datasets[table.dataset_index], row.d_override,
                          row.n_override);
        if (!n.ok()) return n.status();
        for (const ExperimentConfig& config : row.configs) {
          const uint64_t m =
              config.pipeline.attack == AttackKind::kNone
                  ? 0
                  : MaliciousUserCount(config.pipeline.beta, *n);
          users += config.trials * (*n + m);
        }
      }
    }
    return users;
  }

  auto n_or = users_of(spec.datasets[0], 0, 0);
  if (!n_or.ok()) return n_or.status();
  const uint64_t n = *n_or;
  const uint64_t m = MaliciousUserCount(spec.defaults.beta, n);
  const uint64_t cells_trials = spec.protocols.size() * trials;
  if (spec.id == "fig9")
    return cells_trials * spec.sweeps[0].values.size() * (n + m);
  if (spec.id == "ext_protocols")
    return cells_trials * spec.attacks.size() * (n + m);
  // The wave cell streams a clean and an attacked run per trial.
  if (spec.id == "streaming_wave") return cells_trials * 2 * n;
  if (spec.id == "streaming_equiv" || spec.id == "streaming_ramp" ||
      spec.id == "streaming_drift")
    return cells_trials * n;
  // Loss builds a genuine-only and an MGA plan per trial.
  if (spec.id == "shard_fault_loss") return cells_trials * (2 * n + m);
  if (spec.id == "shard_fault_mixed") return cells_trials * (n + m);
  return InvalidArgumentError("no user count for custom scenario " + spec.id);
}

}  // namespace perf
}  // namespace ldpr
