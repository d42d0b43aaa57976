#include "attack/mga.h"

#include <algorithm>
#include <cmath>

#include "ldp/olh.h"
#include "ldp/unary.h"
#include "util/logging.h"

namespace ldpr {

MgaAttack::MgaAttack(std::vector<ItemId> targets, MgaOptions options)
    : targets_(std::move(targets)), options_(options) {
  LDPR_CHECK(!targets_.empty());
}

std::vector<ItemId> MgaAttack::SampleTargets(size_t d, size_t r, Rng& rng) {
  LDPR_CHECK(r >= 1 && r <= d);
  return SampleWithoutReplacement(d, r, rng);
}

void MgaAttack::CraftBatch(const FrequencyProtocol& protocol, size_t m,
                           Rng& rng, ReportBatch::Builder& out) const {
  switch (protocol.kind()) {
    case ProtocolKind::kGrr: {
      out.Reserve(m);
      for (size_t i = 0; i < m; ++i) {
        const ItemId t = targets_[rng.UniformU64(targets_.size())];
        protocol.AppendCraftedReport(t, rng, out);
      }
      break;
    }
    case ProtocolKind::kOue:
    case ProtocolKind::kSue: {
      const auto& oue = static_cast<const UnaryEncoding&>(protocol);
      const size_t d = oue.domain_size();
      out.SetBitsWidth(d);
      out.Reserve(m);
      const size_t expected =
          static_cast<size_t>(std::llround(oue.ExpectedOnes()));
      for (size_t i = 0; i < m; ++i) {
        uint8_t* row = out.AddBitsRow();  // zeroed
        size_t ones = 0;
        for (ItemId t : targets_) {
          LDPR_CHECK(t < d);
          if (!row[t]) {
            row[t] = 1;
            ++ones;
          }
        }
        if (options_.pad_oue) {
          // Bring the 1-count up to the expected count of a genuine
          // report so the crafted vectors pass a naive 1-count
          // anomaly check.
          size_t guard = 0;
          while (ones < expected && guard < 16 * d) {
            const ItemId v = static_cast<ItemId>(rng.UniformU64(d));
            ++guard;
            if (!row[v]) {
              row[v] = 1;
              ++ones;
            }
          }
        }
      }
      break;
    }
    case ProtocolKind::kOlh:
    case ProtocolKind::kBlh: {
      const auto& olh = static_cast<const OlhBase&>(protocol);
      const uint32_t g = olh.g();
      const FastMod mod(g);
      // The targets are fixed across all m reports and all seed
      // tries: precompute each target's item-only xxHash half once
      // (bit-identical hashing — util/hash_family.h).
      std::vector<uint64_t> round0(targets_.size());
      for (size_t j = 0; j < targets_.size(); ++j)
        round0[j] = XxHash64Round0(targets_[j]);
      std::vector<uint32_t> bucket_hits(g);
      out.Reserve(m);
      for (size_t i = 0; i < m; ++i) {
        uint64_t best_seed = 0;
        uint32_t best_value = 0;
        size_t best_hits = 0;
        for (size_t attempt = 0; attempt < options_.olh_seed_tries;
             ++attempt) {
          const uint64_t seed = rng.Next();
          const uint64_t seed_acc = XxHash64SeedAcc(seed);
          std::fill(bucket_hits.begin(), bucket_hits.end(), 0u);
          for (size_t j = 0; j < targets_.size(); ++j) {
            ++bucket_hits[mod(XxHash64Key8WithRound0(round0[j], seed_acc))];
          }
          const auto it =
              std::max_element(bucket_hits.begin(), bucket_hits.end());
          const size_t hits = *it;
          if (hits > best_hits) {
            best_hits = hits;
            best_seed = seed;
            best_value = static_cast<uint32_t>(it - bucket_hits.begin());
            if (best_hits == targets_.size()) break;  // cannot do better
          }
        }
        LDPR_CHECK(best_hits >= 1);
        out.AddSeedValue(best_seed, best_value);
      }
      break;
    }
  }
}

}  // namespace ldpr
