// emoji_survey: a realistic targeted-poisoning scenario.
//
// An OS vendor collects the most-used emoji from users' keyboards
// with OUE (the Apple-style deployment the paper's introduction
// motivates).  An attacker controlling 5% of devices runs MGA to push
// three unpopular emoji into the top-10 ranking.  The server:
//
//   * keeps weekly frequency history collected before the attack,
//   * flags this week's statistical outliers (Section V-D),
//   * feeds them to LDPRecover* as partial knowledge, and
//   * publishes a repaired ranking.
//
// Build & run:  ./build/examples/emoji_survey

#include <algorithm>
#include <cstdio>
#include <numeric>
#include <string>
#include <vector>

#include "attack/mga.h"
#include "data/synthetic.h"
#include "ldp/oue.h"
#include "recover/ldprecover.h"
#include "recover/outlier.h"
#include "sim/pipeline.h"
#include "util/metrics.h"

namespace {

std::vector<size_t> TopK(const std::vector<double>& freqs, size_t k) {
  std::vector<size_t> order(freqs.size());
  std::iota(order.begin(), order.end(), 0u);
  std::partial_sort(order.begin(), order.begin() + k, order.end(),
                    [&](size_t a, size_t b) { return freqs[a] > freqs[b]; });
  order.resize(k);
  return order;
}

void PrintRanking(const char* label, const std::vector<size_t>& top,
                  const std::vector<ldpr::ItemId>& targets) {
  std::printf("%-22s", label);
  for (size_t v : top) {
    const bool attacked =
        std::find(targets.begin(), targets.end(), v) != targets.end();
    std::printf(" %3zu%s", v, attacked ? "*" : " ");
  }
  std::printf("\n");
}

}  // namespace

int main() {
  using namespace ldpr;

  // 64 emoji, 200k users, heavily skewed usage.
  const Dataset week = MakeZipfDataset("emoji", 64, 200000, 1.2, 3);
  const Oue oue(week.domain_size(), /*epsilon=*/0.5);
  constexpr uint64_t kDemoSeed = 2024;  // pinned so the output is reproducible
  Rng rng(kDemoSeed);

  // Weeks 1-6: clean history the server archives.
  std::vector<std::vector<double>> history;
  for (int epoch = 0; epoch < 6; ++epoch) {
    const auto counts = oue.SampleSupportCounts(week.item_counts, rng);
    history.push_back(oue.EstimateFrequencies(counts, week.num_users()));
  }

  // Week 7: the attacker promotes three tail emoji.
  const std::vector<ItemId> targets = {49, 57, 61};
  const MgaAttack attack(targets);
  const size_t m = MaliciousUserCount(0.05, week.num_users());

  auto counts = oue.SampleSupportCounts(week.item_counts, rng);
  ReportBatch crafted;
  ReportBatch::Builder builder(crafted);
  attack.CraftBatch(oue, m, rng, builder);
  oue.AccumulateSupportsBatch(crafted, counts);
  const auto poisoned =
      oue.EstimateFrequencies(counts, week.num_users() + m);

  // Outlier detection against the archived history recovers the
  // attacker's target set without any attack-specific knowledge.
  const std::vector<ItemId> detected =
      DetectFrequencyOutliers(history, poisoned);
  std::printf("detected outlier emoji:");
  for (ItemId v : detected) std::printf(" %u", v);
  std::printf("   (true targets: 49 57 61)\n\n");

  // LDPRecover* with the detected targets as partial knowledge.
  RecoverOptions options;
  options.eta = 0.2;
  if (!detected.empty() && detected.size() < week.domain_size())
    options.known_targets = detected;
  const LdpRecover recover(oue, options);
  const auto recovered = recover.Recover(poisoned);

  const auto truth = week.TrueFrequencies();
  PrintRanking("true top-10:", TopK(truth, 10), targets);
  PrintRanking("poisoned top-10:", TopK(poisoned, 10), targets);
  PrintRanking("recovered top-10:", TopK(recovered, 10), targets);
  std::printf("(* = attacker-promoted emoji)\n\n");

  std::printf("frequency gain over targets: poisoned %+.4f, recovered %+.4f\n",
              FrequencyGain(truth, poisoned, targets),
              FrequencyGain(truth, recovered, targets));
  std::printf("MSE vs truth: poisoned %.3e, recovered %.3e\n",
              Mse(truth, poisoned), Mse(truth, recovered));
  return 0;
}
