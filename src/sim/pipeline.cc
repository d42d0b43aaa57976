#include "sim/pipeline.h"

#include <algorithm>
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
  // m * d bytes), which attacks that append report by report would
  // otherwise regrow.
  builder.Reserve(m);
  attack->CraftBatch(protocol, m, rng, builder);
  LDPR_CHECK(reports.size() == m);
  return attack->targets();
}

size_t ProtocolReportBytes(ProtocolKind kind, size_t d) {
  const bool unary = kind == ProtocolKind::kOue || kind == ProtocolKind::kSue;
  return sizeof(uint64_t) + sizeof(uint32_t) + (unary ? d : 0);
}

size_t CraftChunkReports(const FrequencyProtocol& protocol) {
  const size_t bytes =
      ProtocolReportBytes(protocol.kind(), protocol.domain_size());
  return std::clamp<size_t>(kCraftChunkBytes / bytes, kMinCraftChunkReports,
                            kReportsPerAggregationShard);
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
                              const Dataset& dataset, Rng& rng,
                              bool for_detection) {
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
  // (attacks are stateful samplers), in one CraftBatch call; MGA's
  // OLH/BLH seed search hashes its blocks of that stream on
  // config.shards workers, independently of the worker count.  The
  // reports stream through one chunk, which is aggregated and, for
  // Detection, summarised before it is cleared.  Support counts are
  // integer sums, so the chunked sums equal one pass over all m.
  out.malicious_counts.assign(d, 0.0);
  if (out.m > 0) {
    const std::unique_ptr<Attack> attack = MakeAttack(config, d, rng);
    LDPR_CHECK(attack != nullptr);
    out.attack_targets = attack->targets();
    const bool targeted = !out.attack_targets.empty();
    if (for_detection && targeted) {
      out.malicious_filter.emplace(protocol, out.attack_targets);
    }
    const bool keep_pairs = for_detection && !targeted &&
                            (protocol.kind() == ProtocolKind::kOlh ||
                             protocol.kind() == ProtocolKind::kBlh);
    if (keep_pairs) out.malicious_reports.Reserve(out.m, 0);

    Aggregator malicious_agg(protocol);
    const size_t chunk_reports = CraftChunkReports(protocol);
    ReportBatch chunk;
    ReportBatch::Builder builder(
        chunk, chunk_reports, [&](const ReportBatch& reports) {
          malicious_agg.AddAll(reports);
          if (out.malicious_filter.has_value()) {
            out.malicious_filter->OfferAll(reports);
          }
          if (keep_pairs) {
            for (size_t i = 0; i < reports.size(); ++i)
              out.malicious_reports.AppendFrom(reports, i);
          }
        });
    // Reserved once: an attack that reserves before each report (IPA)
    // then never regrows the chunk.
    builder.Reserve(std::min(out.m, chunk_reports));
    attack->CraftBatch(protocol, out.m, rng, builder);
    builder.Flush();
    LDPR_CHECK(malicious_agg.report_count() == out.m);
    out.malicious_counts = malicious_agg.support_counts();
    out.malicious_freqs =
        protocol.EstimateFrequencies(out.malicious_counts, out.m);
  }

  // Server side: the poisoned estimate over all n + m reports.
  std::vector<double> combined(d);
  for (size_t v = 0; v < d; ++v)
    combined[v] = genuine_counts[v] + out.malicious_counts[v];
  out.poisoned_freqs = protocol.EstimateFrequencies(combined, out.n + out.m);
  return out;
}

void OfferMaliciousReports(const TrialOutput& trial, DetectionFilter& filter) {
  if (trial.malicious_filter.has_value()) {
    filter.Absorb(*trial.malicious_filter);
  } else if (!trial.malicious_reports.empty()) {
    filter.OfferAll(trial.malicious_reports);
  } else {
    filter.OfferSingleItemCounts(trial.malicious_counts, trial.m);
  }
}

}  // namespace ldpr
