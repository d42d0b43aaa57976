// telemetry_audit: defending an *untargeted* manipulation attack.
//
// A browser vendor collects default-search-engine telemetry with OLH
// (the Chrome-style deployment from the paper's introduction).  An
// attacker running Manip wants to make the whole distribution look
// wrong — e.g. to poison a market-share report.  The server has no
// idea which items were attacked; plain LDPRecover (non-knowledge
// mode) is the right tool.  The example also sweeps eta to show the
// paper's robustness claim: over-estimating the malicious ratio is
// safe.
//
// Build & run:  ./build/examples/telemetry_audit

#include <cstdio>

#include "attack/manip.h"
#include "data/synthetic.h"
#include "ldp/olh.h"
#include "recover/ldprecover.h"
#include "sim/pipeline.h"
#include "util/metrics.h"

int main() {
  using namespace ldpr;

  // 40 search engines, 150k clients, long-tailed market share.
  const Dataset clients = MakeZipfDataset("search", 40, 150000, 1.4, 11);
  const auto truth = clients.TrueFrequencies();
  const Olh olh(clients.domain_size(), /*epsilon=*/0.5);
  constexpr uint64_t kDemoSeed = 7;  // pinned so the output is reproducible
  Rng rng(kDemoSeed);

  // The attacker hijacks 8% of clients and floods a random half of
  // the domain with uniform crafted reports.
  const double beta = 0.08;
  const size_t m = MaliciousUserCount(beta, clients.num_users());
  const ManipAttack attack;

  auto counts = olh.SampleSupportCounts(clients.item_counts, rng);
  const auto genuine =
      olh.EstimateFrequencies(counts, clients.num_users());
  ReportBatch crafted;
  ReportBatch::Builder builder(crafted);
  attack.CraftBatch(olh, m, rng, builder);
  olh.AccumulateSupportsBatch(crafted, counts);
  const auto poisoned =
      olh.EstimateFrequencies(counts, clients.num_users() + m);

  std::printf("distortion (L1 to truth): genuine %.4f -> poisoned %.4f\n\n",
              L1Distance(truth, genuine), L1Distance(truth, poisoned));

  // Recover with a range of eta guesses; the server's true ratio is
  // beta/(1-beta) ~ 0.087 but it does not need to know that.
  std::printf("  eta    MSE(poisoned)=%.3e\n", Mse(truth, poisoned));
  for (double eta : {0.01, 0.05, 0.1, 0.2, 0.4}) {
    RecoverOptions options;
    options.eta = eta;
    const LdpRecover recover(olh, options);
    const auto recovered = recover.Recover(poisoned);
    std::printf("  %.2f   MSE(recovered)=%.3e   L1=%.4f\n", eta,
                Mse(truth, recovered), L1Distance(truth, recovered));
  }
  std::printf(
      "\nEvery eta in [0.01, 0.4] beats the poisoned estimate; accuracy\n"
      "peaks when eta is near the true ratio (Figures 5-6 of the paper).\n");
  return 0;
}
