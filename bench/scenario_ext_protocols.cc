// Extension scenario (beyond the paper's evaluation grid): recovery
// accuracy for ALL five implemented protocols — the paper's GRR, OUE,
// OLH plus the SUE and BLH extensions — under MGA and AA, reported
// both as MSE and at the task level (how many attacker targets
// survive in the published top-10 ranking).
//
// RunTrialTable fans the (cell x trial) grid out across LDPR_THREADS
// on counter-derived per-trial seeds, with per-trial metrics merged in
// trial order — byte-identical output at any thread count.

#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "ldp/factory.h"
#include "recover/ldprecover.h"
#include "runner/scenario_runner.h"
#include "scenarios.h"
#include "sim/pipeline.h"
#include "tasks/heavy_hitters.h"
#include "util/metrics.h"

namespace ldpr {
namespace bench {
namespace {

// One trial's columns, in spec.columns order.  Only targeted attacks
// declare targets, so untargeted cells (AA) record 0 target hits.
std::vector<double> RunOneTrial(const FrequencyProtocol& protocol,
                                const Dataset& dataset,
                                const PipelineConfig& pconfig,
                                uint64_t trial_seed) {
  Rng rng(trial_seed);
  const TrialOutput t = RunPoisoningTrial(protocol, pconfig, dataset, rng);
  RecoverOptions opts;
  if (!t.attack_targets.empty()) opts.known_targets = t.attack_targets;
  const LdpRecover recover(protocol, opts);
  const auto recovered = recover.Recover(t.poisoned_freqs);
  const auto hits = [&](const std::vector<double>& estimate) {
    return static_cast<double>(CountInTopK(estimate, t.attack_targets, 10));
  };
  return {Mse(t.true_freqs, t.poisoned_freqs), Mse(t.true_freqs, recovered),
          hits(t.poisoned_freqs), hits(recovered)};
}

Status RunExtProtocols(ScenarioContext& ctx) {
  const ScenarioSpec& spec = ctx.spec;
  const Dataset& ipums = ctx.datasets[0];

  std::vector<std::string> labels;
  std::vector<std::unique_ptr<FrequencyProtocol>> protocols;
  for (AttackKind attack : spec.attacks) {
    for (ProtocolKind kind : spec.protocols) {
      labels.push_back(std::string(AttackKindName(attack)) + "-" +
                       ProtocolKindName(kind));
      protocols.push_back(
          MakeProtocol(kind, ipums.domain_size(), spec.defaults.epsilon));
    }
  }

  RunTrialTable(
      ctx, "Extended protocols (IPUMS): MSE and targets in top-10", labels,
      ctx.seed,
      [&](size_t cell, size_t shards, uint64_t trial_seed) {
        PipelineConfig config;
        config.attack = spec.attacks[cell / spec.protocols.size()];
        config.beta = spec.defaults.beta;
        config.shards = shards;
        return RunOneTrial(*protocols[cell], ipums, config, trial_seed);
      },
      /*group=*/spec.protocols.size());
  return Status::Ok();
}

}  // namespace

void RegisterExtProtocols(ScenarioRegistry& registry) {
  Scenario scenario;
  ScenarioSpec& spec = scenario.spec;
  spec.id = "ext_protocols";
  spec.title =
      "ext_protocols: recovery across all five protocols (GRR/OUE/OLH + "
      "SUE/BLH)";
  spec.artifact = "extension";
  spec.metric_desc = "MSE and targets in top-10";
  spec.datasets = {"ipums"};
  spec.protocols.assign(std::begin(kExtendedProtocolKinds),
                        std::end(kExtendedProtocolKinds));
  spec.attacks = {AttackKind::kMga, AttackKind::kAdaptive};
  spec.columns = {"MSE before", "MSE after", "top10 before", "top10 after"};
  spec.custom = true;
  scenario.run = RunExtProtocols;
  registry.Register(std::move(scenario));
}

}  // namespace bench
}  // namespace ldpr
