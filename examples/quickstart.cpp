// Quickstart: the library's core loop in ~60 lines.
//
//   1. users perturb their items with an LDP protocol (GRR here);
//   2. an attacker injects crafted reports (MGA promoting item 7);
//   3. the server aggregates a *poisoned* frequency estimate;
//   4. LDPRecover repairs it without knowing anything about the attack;
//   5. (optional) the summary persists through a machine-readable
//      ResultSink — the same JSONL layer `ldpr bench --out` writes.
//
// Build & run:  ./build/example_quickstart [results.jsonl]

#include <cstdio>
#include <memory>

#include "attack/mga.h"
#include "data/synthetic.h"
#include "ldp/grr.h"
#include "recover/ldprecover.h"
#include "runner/result_sink.h"
#include "util/metrics.h"
#include "util/random.h"

int main(int argc, char** argv) {
  using namespace ldpr;

  // A population of 50,000 users over 16 items, Zipf-distributed.
  const Dataset population = MakeZipfDataset("demo", 16, 50000, 1.0, 7);
  const std::vector<double> truth = population.TrueFrequencies();

  const Grr grr(population.domain_size(), /*epsilon=*/1.0);
  constexpr uint64_t kDemoSeed = 42;  // pinned so the output is reproducible
  Rng rng(kDemoSeed);

  // 1-2. Aggregate genuine reports, then append 2,500 crafted ones
  //      (5% malicious) that all promote item 7.
  std::vector<double> counts =
      grr.SampleSupportCounts(population.item_counts, rng);
  const MgaAttack attack({7});
  const size_t m = 2500;
  ReportBatch crafted;
  ReportBatch::Builder builder(crafted);
  attack.CraftBatch(grr, m, rng, builder);
  grr.AccumulateSupportsBatch(crafted, counts);

  // 3. The server's poisoned estimate.
  const size_t total_users = population.num_users() + m;
  const std::vector<double> poisoned =
      grr.EstimateFrequencies(counts, total_users);

  // 4. Recover.  eta deliberately over-estimates the true malicious
  //    ratio (the paper's recommended practice).  The second instance
  //    is LDPRecover*: the server learned (e.g. from historical
  //    outlier detection, see examples/emoji_survey.cpp) that item 7
  //    is the attacker's target.
  RecoverOptions options;
  options.eta = 0.2;
  const LdpRecover recover(grr, options);
  const std::vector<double> recovered = recover.Recover(poisoned);

  RecoverOptions star_options = options;
  star_options.known_targets = std::vector<ItemId>{7};
  const LdpRecover star(grr, star_options);
  const std::vector<double> recovered_star = star.Recover(poisoned);

  std::printf("item   truth   poisoned  recovered  recovered*\n");
  for (size_t v = 0; v < truth.size(); ++v) {
    std::printf("%4zu  %.4f   %+.4f    %.4f     %.4f%s\n", v, truth[v],
                poisoned[v], recovered[v], recovered_star[v],
                v == 7 ? "   <- attacked" : "");
  }
  std::printf(
      "\nMSE vs truth:  poisoned %.3e   LDPRecover %.3e   LDPRecover* "
      "%.3e\n",
      Mse(truth, poisoned), Mse(truth, recovered),
      Mse(truth, recovered_star));
  std::printf(
      "item 7 inflation: poisoned %+.4f, LDPRecover %+.4f, LDPRecover* "
      "%+.4f\n",
      poisoned[7] - truth[7], recovered[7] - truth[7],
      recovered_star[7] - truth[7]);

  // 5. Machine-readable results, if a path was given.  Every scenario
  //    and tool writes through this interface; Finish() fails on
  //    partial writes, so checking it is part of the contract.
  if (argc > 1) {
    JsonlSink sink(argv[1]);
    ScenarioRunInfo info;
    info.id = "quickstart";
    sink.BeginScenario(info);
    sink.BeginTable("quickstart MSE vs truth",
                    {"poisoned", "ldprecover", "ldprecover_star"});
    sink.AddRow("mse", {Mse(truth, poisoned), Mse(truth, recovered),
                        Mse(truth, recovered_star)});
    sink.EndTable();
    const Status status = sink.Finish();
    if (!status.ok()) {
      std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
      return 1;
    }
    std::printf("\nwrote %s\n", argv[1]);
  }
  return 0;
}
