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
//   NormSub       KKT projection of the poisoned estimate directly.
//
// The (cell x trial) grid fans out across LDPR_THREADS: trial t of
// cell c runs on Rng(DeriveSeed(seed, c * trials + t)) and the
// per-trial MSEs merge in trial order, so the output is
// byte-identical at any thread count.

#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "ldp/factory.h"
#include "recover/ldprecover.h"
#include "recover/normalization.h"
#include "runner/scenario_runner.h"
#include "scenarios.h"
#include "sim/pipeline.h"
#include "util/metrics.h"

namespace ldpr {
namespace bench {
namespace {

struct TrialRow {
  double before = 0, full = 0, nosub = 0, norefine = 0, clip = 0, normsub = 0;
};

TrialRow RunOneTrial(const FrequencyProtocol& protocol, const Dataset& dataset,
                     const PipelineConfig& pconfig, uint64_t trial_seed) {
  RecoverOptions full;
  RecoverOptions no_sub;
  no_sub.ablate_no_subtraction = true;
  RecoverOptions no_refine;
  no_refine.ablate_no_refinement = true;

  Rng rng(trial_seed);
  const TrialOutput t = RunPoisoningTrial(protocol, pconfig, dataset, rng);
  TrialRow row;
  row.before = Mse(t.true_freqs, t.poisoned_freqs);
  row.full =
      Mse(t.true_freqs, LdpRecover(protocol, full).Recover(t.poisoned_freqs));
  row.nosub =
      Mse(t.true_freqs, LdpRecover(protocol, no_sub).Recover(t.poisoned_freqs));
  row.norefine = Mse(t.true_freqs,
                     LdpRecover(protocol, no_refine).Recover(t.poisoned_freqs));
  row.clip = Mse(t.true_freqs, ClipAndRenormalize(t.poisoned_freqs));
  row.normsub = Mse(t.true_freqs, NormSub(t.poisoned_freqs));
  return row;
}

Status RunAblation(ScenarioContext& ctx) {
  const ScenarioSpec& spec = ctx.spec;
  const Dataset& ipums = ctx.datasets[0];

  std::vector<ScenarioCell> cells;
  for (AttackKind attack : spec.attacks) {
    for (ProtocolKind kind : spec.protocols) cells.push_back({attack, kind});
  }
  std::vector<std::unique_ptr<FrequencyProtocol>> protocols;
  for (const ScenarioCell& cell : cells)
    protocols.push_back(MakeProtocol(cell.protocol, ipums.domain_size(),
                                     spec.defaults.epsilon));

  const size_t trials = ctx.trials;
  ThreadBudget budget;
  const std::vector<TrialRow> rows = RunTrialGrid<TrialRow>(
      cells.size(), trials, ctx.seed,
      [&](size_t cell, size_t shards, uint64_t trial_seed) {
        PipelineConfig config;
        config.attack = cells[cell].attack;
        config.beta = spec.defaults.beta;
        config.shards = shards;
        return RunOneTrial(*protocols[cell], ipums, config, trial_seed);
      },
      &budget);
  ctx.report.outer_workers = budget.outer;
  ctx.report.shards = budget.inner;

  ctx.sink.BeginTable("Ablation (IPUMS): MSE", spec.columns);
  for (size_t cell = 0; cell < cells.size(); ++cell) {
    RunningStat before, full, nosub, norefine, clip, normsub;
    for (size_t t = 0; t < trials; ++t) {
      const TrialRow& row = rows[cell * trials + t];
      before.Add(row.before);
      full.Add(row.full);
      nosub.Add(row.nosub);
      norefine.Add(row.norefine);
      clip.Add(row.clip);
      normsub.Add(row.normsub);
    }
    const std::string name =
        std::string(AttackKindName(cells[cell].attack)) + "-" +
        ProtocolKindName(cells[cell].protocol);
    ctx.sink.AddRow(name, {before.mean(), full.mean(), nosub.mean(),
                           norefine.mean(), clip.mean(), normsub.mean()});
    ++ctx.report.rows;
    if ((cell + 1) % spec.protocols.size() == 0 && cell + 1 < cells.size())
      ctx.sink.AddSeparator();
  }
  ctx.sink.EndTable();
  ++ctx.report.tables;
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
