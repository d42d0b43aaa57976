// Figure 10: LDPRecover against five simultaneous adaptive attackers
// (the multi-attacker threat model of Section VII-C), sweeping the
// total malicious fraction beta, on IPUMS.

#include <iterator>
#include <string>

#include "attack/multi_attacker.h"
#include "ldp/factory.h"
#include "scenarios.h"

namespace ldpr {
namespace bench {

void RegisterFig10(ScenarioRegistry& registry) {
  Scenario scenario;
  ScenarioSpec& spec = scenario.spec;
  spec.id = "fig10";
  spec.title = "fig10: Figure 10 — multi-attacker adaptive poisoning";
  spec.artifact = "Figure 10";
  spec.metric_desc = "MSE";
  spec.datasets = {"ipums"};
  spec.protocols.assign(std::begin(kAllProtocolKinds),
                        std::end(kAllProtocolKinds));
  spec.attacks = {AttackKind::kMultiAdaptive};
  spec.protocol_tag = "MUL-AA-";
  spec.protocol_tag_suffix =
      ", " + std::to_string(kMultiAdaptiveAttackers) + " attackers";
  spec.sweeps = {{SweepParam::kBeta, {0.05, 0.10, 0.15, 0.20, 0.25}}};
  spec.columns = {"Before", "LDPRecover"};
  spec.defaults.run_detection = false;
  spec.defaults.run_star = false;
  scenario.format_row = [](const std::vector<ExperimentResult>& r) {
    return std::vector<double>{r[0].mse_before.mean(), r[0].mse_recover.mean()};
  };
  registry.Register(std::move(scenario));
}

}  // namespace bench
}  // namespace ldpr
