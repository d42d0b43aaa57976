// The figure/table scenario registrations behind `ldpr bench`.  Each scenario_*.cc file re-expresses one former bespoke
// bench main as a declarative ScenarioSpec plus its row-formatting
// callback (or, for the bespoke trial loops, a custom run function),
// registered into the process-wide ScenarioRegistry.
//
// Registration is explicit: call RegisterAllScenarios() once before
// using ScenarioRegistry::Global().  Idempotent.

#ifndef LDPR_BENCH_SCENARIOS_H_
#define LDPR_BENCH_SCENARIOS_H_

#include "runner/registry.h"

namespace ldpr {
namespace bench {

void RegisterTable1(ScenarioRegistry& registry);
void RegisterFig3(ScenarioRegistry& registry);
void RegisterFig4(ScenarioRegistry& registry);
void RegisterFig5Fig6(ScenarioRegistry& registry);
void RegisterFig7(ScenarioRegistry& registry);
void RegisterFig8(ScenarioRegistry& registry);
void RegisterFig9(ScenarioRegistry& registry);
void RegisterFig10(ScenarioRegistry& registry);
void RegisterAblation(ScenarioRegistry& registry);
void RegisterExtProtocols(ScenarioRegistry& registry);
void RegisterScalingN(ScenarioRegistry& registry);
void RegisterScalingD(ScenarioRegistry& registry);
void RegisterStreamingEquiv(ScenarioRegistry& registry);
void RegisterStreamingWave(ScenarioRegistry& registry);
void RegisterStreamingRamp(ScenarioRegistry& registry);
void RegisterStreamingDrift(ScenarioRegistry& registry);
void RegisterShardFaultLoss(ScenarioRegistry& registry);
void RegisterShardFaultMixed(ScenarioRegistry& registry);

/// Registers every paper figure/table scenario into the global
/// registry, in the order `ldpr list` reports them.  Safe to
/// call more than once.
void RegisterAllScenarios();

}  // namespace bench
}  // namespace ldpr

#endif  // LDPR_BENCH_SCENARIOS_H_
