// `ldpr run`: the batch poisoning + recovery pipeline.
//
// Examples:
//   # Paper defaults against MGA on the IPUMS stand-in:
//   ldpr run --protocol=OUE --attack=MGA --dataset=ipums
//
//   # A custom Zipf population from CSV-free synthetic data:
//   ldpr run --protocol=GRR --attack=AA --dataset=zipf
//       --d=64 --n=100000 --beta=0.1 --trials=10
//
//   # Your own data (one item per row, first column, header skipped):
//   ldpr run --protocol=OLH --attack=MGA --csv=items.csv
//
// Flags (defaults in brackets): the trial flags (cli.h) with
// --protocol [GRR], --attack [AA] (none|Manip|MGA|AA|MGA-IPA|MUL-AA),
// --dataset [ipums] (ipums|fire|zipf|uniform) or --csv FILE, --d/--n
// (zipf|uniform only) [102/100000], --epsilon [0.5], --beta [0.05],
// --eta [0.2], --targets [10], --seed [1], --scale [1.0]; plus
// --trials [5, at most kMaxTrials], --top_k [10], --threads [0 =
// auto] and --out DIR (a result tree with the one scenario `cli`).
// Results are bit-identical at any --threads value.

#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cli/cli.h"
#include "ldp/factory.h"
#include "recover/ldprecover.h"
#include "sim/experiment.h"
#include "tasks/heavy_hitters.h"
#include "util/thread_pool.h"

namespace ldpr {
namespace cli {

int RunCommand(const FlagParser& flags) {
  const auto trial = ParseTrialFlags(flags, "ipums", "AA");
  const auto trials = flags.GetNonNegativeInt("trials", 5);
  const auto top_k = flags.GetInt("top_k", 10);
  const auto threads = flags.GetNonNegativeInt("threads", 0);
  const std::string out_dir = flags.GetString("out", "");
  if (const int rc = ExitStatus(flags, {trial.status(), trials.status(),
                                        top_k.status(), threads.status()}))
    return rc;

  ExperimentConfig config;
  config.protocol = trial->protocol;
  config.epsilon = trial->epsilon;
  config.pipeline.attack = trial->attack;
  config.pipeline.beta = trial->beta;
  config.pipeline.num_targets = static_cast<size_t>(trial->targets);
  config.eta = trial->eta;
  config.trials = static_cast<size_t>(*trials);
  config.seed = trial->seed;
  config.threads = static_cast<size_t>(*threads);

  // Surface bad knobs as status errors before any CHECK-guarded
  // library code can abort on them (empty/scaled-away datasets,
  // trials outside [1, kMaxTrials], out-of-range
  // epsilon/beta/eta/targets, an attack too large to craft, ...).
  const auto dataset_or = ResolveTrialDataset(*trial);
  const Status valid = dataset_or.ok()
                           ? ValidateExperimentInputs(config, *dataset_or)
                           : dataset_or.status();
  if (const int rc = ExitStatus(
          flags, {RequireInRange("threads", *threads, 0,
                                 static_cast<int64_t>(kMaxThreads)),
                  valid, Require(*top_k >= 1, "--top_k must be >= 1")}))
    return rc;
  const Dataset& dataset = *dataset_or;

  ScenarioSpec spec;
  spec.id = "cli";
  char title[128];
  std::snprintf(title, sizeof(title),
                "ldpr run: %s under %s, eps=%g, beta=%g, eta=%g",
                ProtocolKindName(config.protocol),
                AttackKindName(config.pipeline.attack), config.epsilon,
                config.pipeline.beta, config.eta);
  spec.title = title;
  spec.columns = {"MSE", "FG", "samples"};
  ScenarioRunReport run;
  run.info.seed = config.seed;
  run.info.scale = trial->scale;
  run.info.trials = config.trials;
  run.info.threads =
      config.threads != 0 ? config.threads : DefaultThreadCount();
  const ThreadBudget budget = SplitThreadBudget(config.threads, config.trials);
  run.outer_workers = budget.outer;
  run.shards = budget.inner;
  ResultOutput output(std::move(spec), out_dir);
  if (const int rc = ExitStatus(flags, {output.Open(run, dataset)})) return rc;

  const ExperimentResult r = RunExperiment(config, dataset);

  std::vector<TableRow> rows;
  const auto add = [&rows](const char* label, const RunningStat& mse,
                           const RunningStat& fg) {
    rows.push_back({label, {mse.mean(), fg.mean(),
                            static_cast<double>(mse.count())}});
  };
  add("Before", r.mse_before, r.fg_before);
  if (r.mse_detection.count() > 0)
    add("Detection", r.mse_detection, r.fg_detection);
  add("LDPRecover", r.mse_recover, r.fg_recover);
  if (r.mse_recover_star.count() > 0)
    add("LDPRecover*", r.mse_recover_star, r.fg_recover_star);
  output.WriteTable("Recovery accuracy", rows);

  // Task-level view: how intact is the published top-k?
  // (single representative trial for the ranking illustration)
  const auto protocol =
      MakeProtocol(config.protocol, dataset.domain_size(), config.epsilon);
  Rng rng(config.seed);
  const TrialOutput t =
      RunPoisoningTrial(*protocol, config.pipeline, dataset, rng);
  RecoverOptions ropts;
  ropts.eta = config.eta;
  ropts.paper_literal_subdomain_sum = config.paper_literal_subdomain_sum;
  if (!t.attack_targets.empty()) ropts.known_targets = t.attack_targets;
  const LdpRecover recover(*protocol, ropts);
  const auto recovered = recover.Recover(t.poisoned_freqs);
  const size_t k = static_cast<size_t>(*top_k);
  std::printf("top-%zu displacement vs truth: poisoned %.2f, recovered %.2f\n",
              k, TopKDisplacement(t.true_freqs, t.poisoned_freqs, k),
              TopKDisplacement(t.true_freqs, recovered, k));
  if (!t.attack_targets.empty()) {
    std::printf("attacker targets inside top-%zu: poisoned %zu, recovered "
                "%zu (of %zu)\n",
                k, CountInTopK(t.poisoned_freqs, t.attack_targets, k),
                CountInTopK(recovered, t.attack_targets, k),
                t.attack_targets.size());
  }

  return ExitStatus(flags, {output.Finish()});
}

}  // namespace cli
}  // namespace ldpr
