#include "sim/pipeline.h"

#include <cmath>

#include "attack/adaptive.h"
#include "attack/ipa.h"
#include "attack/manip.h"
#include "attack/mga.h"
#include "attack/multi_attacker.h"
#include "util/logging.h"

namespace ldpr {

const char* AttackKindName(AttackKind kind) {
  switch (kind) {
    case AttackKind::kNone:
      return "none";
    case AttackKind::kManip:
      return "Manip";
    case AttackKind::kMga:
      return "MGA";
    case AttackKind::kAdaptive:
      return "AA";
    case AttackKind::kMgaIpa:
      return "MGA-IPA";
    case AttackKind::kMultiAdaptive:
      return "MUL-AA";
  }
  return "unknown";
}

StatusOr<AttackKind> ParseAttackKind(const std::string& name) {
  if (name == "none") return AttackKind::kNone;
  if (name == "Manip" || name == "manip") return AttackKind::kManip;
  if (name == "MGA" || name == "mga") return AttackKind::kMga;
  if (name == "AA" || name == "aa") return AttackKind::kAdaptive;
  if (name == "MGA-IPA" || name == "mga-ipa") return AttackKind::kMgaIpa;
  if (name == "MUL-AA" || name == "mul-aa") return AttackKind::kMultiAdaptive;
  return InvalidArgumentError("unknown attack: " + name);
}

size_t MaliciousUserCount(double beta, uint64_t n) {
  LDPR_CHECK(beta >= 0.0 && beta < 1.0);
  return static_cast<size_t>(
      std::llround(beta * static_cast<double>(n) / (1.0 - beta)));
}

std::unique_ptr<Attack> MakeAttack(const PipelineConfig& config, size_t d,
                                   Rng& rng) {
  switch (config.attack) {
    case AttackKind::kNone:
      return nullptr;
    case AttackKind::kManip:
      return std::make_unique<ManipAttack>();  // |H| / |D| = 0.5
    case AttackKind::kMga:
      return std::make_unique<MgaAttack>(
          MgaAttack::SampleTargets(d, config.num_targets, rng),
          config.shards);
    case AttackKind::kAdaptive:
      return std::make_unique<AdaptiveAttack>();
    case AttackKind::kMgaIpa:
      return MakeMgaIpa(d,
                        MgaAttack::SampleTargets(d, config.num_targets, rng));
    case AttackKind::kMultiAdaptive:
      return MakeMultiAdaptive();
  }
  return nullptr;
}

std::vector<ItemId> CraftMaliciousReports(const FrequencyProtocol& protocol,
                                          const PipelineConfig& config,
                                          size_t m, Rng& rng,
                                          ReportBatch& reports) {
  LDPR_CHECK(m > 0);
  const std::unique_ptr<Attack> attack =
      MakeAttack(config, protocol.domain_size(), rng);
  LDPR_CHECK(attack != nullptr);
  ReportBatch::Builder builder(reports);
  // One exact-size allocation for all m reports (unary rows are
  // m * d bytes): attacks that append report by report would
  // otherwise regrow it, and the freed tens-of-MB blocks of
  // successive trials fragment the allocator's per-thread arenas,
  // so peak RSS creeps with the number of trials run.
  builder.Reserve(m);
  attack->CraftBatch(protocol, m, rng, builder);
  LDPR_CHECK(reports.size() == m);
  return attack->targets();
}

std::vector<double> ExactGenuineSupportCountsSharded(
    const FrequencyProtocol& protocol,
    const std::vector<uint64_t>& item_counts, uint64_t seed, size_t shards) {
  LDPR_CHECK(item_counts.size() == protocol.domain_size());
  uint64_t n = 0;
  for (uint64_t c : item_counts) n += c;
  return ShardedSupportCounts(
      n, protocol.domain_size(), seed, shards,
      [&](uint64_t begin, uint64_t end, Rng& rng) {
        return protocol.ExactSupportCounts(
            RestrictItemCountsToUsers(item_counts, begin, end), rng);
      });
}

TrialOutput RunPoisoningTrial(const FrequencyProtocol& protocol,
                              const PipelineConfig& config,
                              const Dataset& dataset, Rng& rng) {
  const size_t d = protocol.domain_size();
  LDPR_CHECK(dataset.domain_size() == d);

  TrialOutput out;
  out.n = dataset.num_users();
  out.m = (config.attack == AttackKind::kNone)
              ? 0
              : MaliciousUserCount(config.beta, out.n);
  out.true_freqs = dataset.TrueFrequencies();

  // Genuine side: aggregate support counts, closed-form or per-user,
  // sharded across config.shards workers.  One seed drawn from the
  // trial RNG keys the sharded fan-out, so the number of draws
  // consumed here — and therefore everything downstream of `rng` —
  // is independent of the shard count.
  const uint64_t genuine_seed = rng.Next();
  const std::vector<double> genuine_counts =
      config.exact_genuine
          ? ExactGenuineSupportCountsSharded(protocol, dataset.item_counts,
                                             genuine_seed, config.shards)
          : protocol.SampleSupportCountsSharded(dataset.item_counts,
                                                genuine_seed, config.shards);
  out.genuine_freqs = protocol.EstimateFrequencies(genuine_counts, out.n);

  // Attacker side.  Crafting consumes the trial RNG in report order
  // (attacks are stateful samplers); MGA's OLH/BLH seed search hashes
  // its blocks of that stream on config.shards workers, and the
  // support accumulation — the O(m*d) part for OLH/unary — shards
  // over the report chunks.  Neither depends on the worker count.
  std::vector<double> malicious_counts(d, 0.0);
  if (out.m > 0) {
    out.attack_targets = CraftMaliciousReports(protocol, config, out.m, rng,
                                               out.malicious_reports);
    Aggregator malicious_agg(protocol);
    malicious_agg.AddAllSharded(out.malicious_reports, config.shards);
    malicious_counts = malicious_agg.support_counts();
    out.malicious_freqs =
        protocol.EstimateFrequencies(malicious_counts, out.m);
  }

  // Server side: the poisoned estimate over all n + m reports.
  std::vector<double> combined(d);
  for (size_t v = 0; v < d; ++v)
    combined[v] = genuine_counts[v] + malicious_counts[v];
  out.poisoned_freqs = protocol.EstimateFrequencies(combined, out.n + out.m);
  return out;
}

}  // namespace ldpr
