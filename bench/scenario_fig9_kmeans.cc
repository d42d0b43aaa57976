// Figure 9: defending MGA-IPA (input poisoning) with the k-means
// clustering defense alone versus LDPRecover-KM, sweeping the
// defense's subset rate xi, on IPUMS.
//
// Note: the paper sweeps xi up to 0.9 with bootstrap subsets; this
// implementation partitions users into 1/xi disjoint subsets (see
// recover/kmeans_defense.h), so xi is capped at 0.5 (two subsets).
//
// RunTrialTable fans the (xi x trial) grid of each protocol out across
// LDPR_THREADS on counter-derived per-trial seeds, and per-trial MSEs
// merge in trial order, so output is byte-identical at any thread
// count.  A trial aggregates its reports once per defense partition:
// "Before" reads the poisoned estimate off the first defense's
// population counts (the exact sum of its per-subset counts), and
// LDPRecover-KM does the same with its own partition.

#include <cstdio>
#include <iterator>
#include <string>
#include <vector>

#include "ldp/factory.h"
#include "recover/kmeans_defense.h"
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
                                const std::vector<double>& truth, double xi,
                                double beta, uint64_t trial_seed) {
  Rng rng(trial_seed);
  // Materialize the full IPA-poisoned report set: genuine users
  // perturb honestly, malicious users perturb attacker-chosen inputs
  // honestly.
  PipelineConfig pconfig;
  pconfig.attack = AttackKind::kMgaIpa;
  pconfig.beta = beta;
  const size_t m = MaliciousUserCount(pconfig.beta, dataset.num_users());

  ReportBatch reports;
  ReportBatch::Builder builder(reports);
  builder.Reserve(dataset.num_users() + m);
  protocol.SampleReportsBatch(dataset.item_counts, rng, builder);
  const auto attack = MakeAttack(pconfig, dataset.domain_size(), rng);
  attack->CraftBatch(protocol, m, rng, builder);

  KMeansDefenseOptions opts;
  opts.sample_rate = xi;
  const KMeansDefenseResult defense =
      RunKMeansDefense(protocol, reports, opts, rng);
  const double before =
      Mse(truth, protocol.EstimateFrequencies(defense.population_counts,
                                              defense.population_size));
  const double kmeans_alone = Mse(truth, defense.genuine_estimate);
  return {before, kmeans_alone,
          Mse(truth, LdpRecoverKm(protocol, reports, opts, 0.2, rng))};
}

Status RunFig9(ScenarioContext& ctx) {
  const ScenarioSpec& spec = ctx.spec;
  const Dataset& ipums = ctx.datasets[0];
  const std::vector<double> truth = ipums.TrueFrequencies();
  const std::vector<double>& xis = spec.sweeps[0].values;
  std::vector<std::string> labels;
  for (double xi : xis) {
    char name[32];
    std::snprintf(name, sizeof(name), "xi=%g", xi);
    labels.push_back(name);
  }

  for (size_t p = 0; p < spec.protocols.size(); ++p) {
    const ProtocolKind kind = spec.protocols[p];
    const auto protocol =
        MakeProtocol(kind, ipums.domain_size(), spec.defaults.epsilon);
    RunTrialTable(ctx,
                  std::string("Figure 9 (IPUMS, MGA-IPA, ") +
                      ProtocolKindName(kind) + "): MSE vs xi",
                  labels, DeriveSeed(ctx.seed, p),
                  [&](size_t xi_index, size_t /*shards*/,
                      uint64_t trial_seed) {
                    return RunOneTrial(*protocol, ipums, truth, xis[xi_index],
                                       spec.defaults.beta, trial_seed);
                  });
  }
  return Status::Ok();
}

}  // namespace

void RegisterFig9(ScenarioRegistry& registry) {
  Scenario scenario;
  ScenarioSpec& spec = scenario.spec;
  spec.id = "fig9";
  spec.title =
      "fig9: Figure 9 — k-means defense vs LDPRecover-KM under MGA-IPA";
  spec.artifact = "Figure 9";
  spec.metric_desc = "MSE vs xi";
  spec.datasets = {"ipums"};
  spec.protocols.assign(std::begin(kAllProtocolKinds),
                        std::end(kAllProtocolKinds));
  spec.attacks = {AttackKind::kMgaIpa};
  spec.sweeps = {{SweepParam::kXi, {0.1, 0.2, 0.3, 0.5}}};
  spec.columns = {"Before", "K-means", "LDPRecover-KM"};
  spec.custom = true;
  scenario.run = RunFig9;
  registry.Register(std::move(scenario));
}

}  // namespace bench
}  // namespace ldpr
