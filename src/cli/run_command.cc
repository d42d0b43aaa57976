// `ldpr run`: the batch poisoning + recovery pipeline.
//
// Examples:
//   # Paper defaults against MGA on the IPUMS stand-in:
//   ldpr run --protocol=OUE --attack=MGA --dataset=ipums
//
//   # A custom Zipf population from CSV-free synthetic data:
//   ldpr run --protocol=GRR --attack=AA --dataset=zipf
//       --d=64 --n=100000 --zipf_s=1.1 --beta=0.1 --trials=10
//
//   # Your own data (one item per row, first column, header skipped):
//   ldpr run --protocol=OLH --attack=MGA --csv=items.csv
//
// Flags (defaults in brackets): --protocol [GRR], --attack [AA]
// (none|Manip|MGA|AA|MGA-IPA|MUL-AA), --dataset [ipums]
// (ipums|fire|zipf|uniform), --csv FILE, --d [102], --n [100000],
// --zipf_s [1.0], --epsilon [0.5], --beta [0.05], --eta [0.2],
// --targets [10], --trials [5], --seed [1], --scale [1.0],
// --top_k [10], --threads [0 = auto], --out FILE (CSV, or JSONL when
// FILE ends in .jsonl).  Results are bit-identical at any --threads
// value.

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "cli/cli.h"
#include "ldp/factory.h"
#include "recover/ldprecover.h"
#include "sim/experiment.h"
#include "tasks/heavy_hitters.h"

namespace ldpr {
namespace cli {

int RunCommand(const FlagParser& flags) {
  const auto protocol_or =
      ParseProtocolKind(flags.GetString("protocol", "GRR"));
  const auto attack_or = ParseAttackKind(flags.GetString("attack", "AA"));
  auto dataset_or = ParseDatasetFlags(flags);
  const auto epsilon = flags.GetDouble("epsilon", 0.5);
  const auto beta = flags.GetDouble("beta", 0.05);
  const auto eta = flags.GetDouble("eta", 0.2);
  const auto targets = flags.GetNonNegativeInt("targets", 10);
  const auto trials = flags.GetNonNegativeInt("trials", 5);
  const auto seed = flags.GetNonNegativeInt("seed", 1);
  const auto scale = flags.GetDouble("scale", 1.0);
  const auto top_k = flags.GetInt("top_k", 10);
  const auto threads = flags.GetNonNegativeInt("threads", 0);
  const std::string out_path = flags.GetString("out", "");

  for (const Status& status :
       {protocol_or.status(), attack_or.status(), dataset_or.status(),
        epsilon.status(), beta.status(), eta.status(), targets.status(),
        trials.status(), seed.status(), scale.status(), top_k.status(),
        threads.status()}) {
    if (!status.ok()) {
      std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
      return 1;
    }
  }
  for (const std::string& unused : flags.unused_flags()) {
    std::fprintf(stderr, "error: unknown flag --%s\n", unused.c_str());
    return 1;
  }

  ExperimentConfig config;
  config.protocol = *protocol_or;
  config.epsilon = *epsilon;
  config.pipeline.attack = *attack_or;
  config.pipeline.beta = *beta;
  config.pipeline.num_targets = static_cast<size_t>(*targets);
  config.eta = *eta;
  config.trials = static_cast<size_t>(*trials);
  config.seed = static_cast<uint64_t>(*seed);
  config.threads = static_cast<size_t>(*threads);

  // Surface bad knobs as status errors before any CHECK-guarded
  // library code can abort on them (empty/scaled-away datasets, zero
  // trials, out-of-range epsilon/beta/eta/targets, ...).
  if (!(*scale > 0.0 && *scale <= 1.0)) {
    std::fprintf(stderr,
                 "error: INVALID_ARGUMENT: --scale must be in (0, 1]\n");
    return 1;
  }
  if (*top_k < 1) {
    std::fprintf(stderr, "error: INVALID_ARGUMENT: --top_k must be >= 1\n");
    return 1;
  }
  const Dataset dataset = ScaleDataset(*dataset_or, *scale);
  if (const Status valid = ValidateExperimentInputs(config, dataset);
      !valid.ok()) {
    std::fprintf(stderr, "error: %s\n", valid.ToString().c_str());
    return 1;
  }

  auto sink_or = MakeRunSink(out_path, "cli");
  if (!sink_or.ok()) {
    std::fprintf(stderr, "error: %s\n", sink_or.status().ToString().c_str());
    return 1;
  }
  ResultSink& sink = **sink_or;

  std::printf("ldpr run: %s under %s on %s (d=%zu, n=%llu), eps=%g, "
              "beta=%g, eta=%g, %zu trials\n\n",
              ProtocolKindName(config.protocol),
              AttackKindName(config.pipeline.attack), dataset.name.c_str(),
              dataset.domain_size(),
              static_cast<unsigned long long>(dataset.num_users()),
              config.epsilon, config.pipeline.beta, config.eta, config.trials);

  const ExperimentResult r = RunExperiment(config, dataset);

  sink.BeginTable("Recovery accuracy", {"MSE", "FG", "samples"});
  sink.AddRow("Before", {r.mse_before.mean(), r.fg_before.mean(),
                         static_cast<double>(r.mse_before.count())});
  if (r.mse_detection.count() > 0) {
    sink.AddRow("Detection", {r.mse_detection.mean(), r.fg_detection.mean(),
                              static_cast<double>(r.mse_detection.count())});
  }
  sink.AddRow("LDPRecover", {r.mse_recover.mean(), r.fg_recover.mean(),
                             static_cast<double>(r.mse_recover.count())});
  if (r.mse_recover_star.count() > 0) {
    sink.AddRow("LDPRecover*",
                {r.mse_recover_star.mean(), r.fg_recover_star.mean(),
                 static_cast<double>(r.mse_recover_star.count())});
  }
  sink.EndTable();

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

  const Status finish = sink.Finish();
  if (!finish.ok()) {
    std::fprintf(stderr, "error: %s\n", finish.ToString().c_str());
    return 1;
  }
  if (!out_path.empty()) std::printf("\nwrote %s\n", out_path.c_str());
  return 0;
}

}  // namespace cli
}  // namespace ldpr
