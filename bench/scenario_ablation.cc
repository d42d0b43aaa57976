// Ablation scenario (docs/architecture.md, "Closed-form
// approximations"): which parts of LDPRecover
// do the work?  Compares, under MGA and AA on IPUMS:
//
//   Before        the raw poisoned estimate;
//   Full          LDPRecover as published (subtract + refine);
//   NoSubtract    (1+eta) rescale + KKT refinement only;
//   NoRefine      Eq. (27) raw (subtract, no simplex projection);
//   ClipRenorm    clamp negatives + multiplicative renormalization
//                 (the standard post-processing baseline);
//   NormSub       Norm-Sub (Wang et al., NDSS 2020): the KKT projection
//                 of the poisoned estimate directly.
//
// RunTrialTable fans the (cell x trial) grid out across LDPR_THREADS:
// trial t of cell c runs on Rng(DeriveSeed(seed, c * trials + t)) and
// the per-trial MSEs merge in trial order, so the output is
// byte-identical at any thread count.

#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "ldp/factory.h"
#include "recover/ldprecover.h"
#include "recover/normalization.h"
#include "recover/simplex_projection.h"
#include "runner/scenario_runner.h"
#include "scenarios.h"
#include "sim/pipeline.h"
#include "util/metrics.h"

namespace ldpr {
namespace bench {
namespace {

// One trial's MSEs, in spec.columns order.
std::vector<double> RunOneTrial(const FrequencyProtocol& protocol,
                                const Dataset& dataset,
                                const PipelineConfig& pconfig,
                                uint64_t trial_seed) {
  RecoverOptions full;
  RecoverOptions no_sub;
  no_sub.ablate_no_subtraction = true;
  RecoverOptions no_refine;
  no_refine.ablate_no_refinement = true;

  Rng rng(trial_seed);
  const TrialOutput t = RunPoisoningTrial(protocol, pconfig, dataset, rng);
  const auto mse = [&](const std::vector<double>& estimate) {
    return Mse(t.true_freqs, estimate);
  };
  return {mse(t.poisoned_freqs),
          mse(LdpRecover(protocol, full).Recover(t.poisoned_freqs)),
          mse(LdpRecover(protocol, no_sub).Recover(t.poisoned_freqs)),
          mse(LdpRecover(protocol, no_refine).Recover(t.poisoned_freqs)),
          mse(ClipAndRenormalize(t.poisoned_freqs)),
          mse(ProjectToSimplexKkt(t.poisoned_freqs))};
}

Status RunAblation(ScenarioContext& ctx) {
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
      ctx, "Ablation (IPUMS): MSE", labels, ctx.seed,
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

void RegisterAblation(ScenarioRegistry& registry) {
  Scenario scenario;
  ScenarioSpec& spec = scenario.spec;
  spec.id = "ablation";
  spec.title = "ablation: LDPRecover component ablation (MSE)";
  spec.artifact = "extension";
  spec.metric_desc = "MSE";
  spec.datasets = {"ipums"};
  spec.protocols.assign(std::begin(kAllProtocolKinds),
                        std::end(kAllProtocolKinds));
  spec.attacks = {AttackKind::kMga, AttackKind::kAdaptive};
  spec.columns = {"Before",     "Full",       "NoSubtract",
                  "NoRefine",   "ClipRenorm", "NormSub"};
  spec.custom = true;
  scenario.run = RunAblation;
  registry.Register(std::move(scenario));
}

}  // namespace bench
}  // namespace ldpr
