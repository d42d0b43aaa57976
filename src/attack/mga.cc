#include "attack/mga.h"

#include <cmath>
#include <utility>

#include "ldp/olh.h"
#include "ldp/unary.h"
#include "util/logging.h"
#include "util/simd.h"

namespace ldpr {

// The OLH/BLH search counts whole LocalHashBlock blocks of tries.
static_assert(kMgaOlhSeedTries % kLocalHashLanes == 0);

MgaAttack::MgaAttack(std::vector<ItemId> targets)
    : targets_(std::move(targets)) {
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
          ones += !row[t];
          row[t] = 1;
        }
        // Bring the 1-count up to the expected count of a genuine
        // report so the crafted vectors pass a naive 1-count anomaly
        // check.
        size_t guard = 0;
        while (ones < expected && guard < 16 * d) {
          const ItemId v = static_cast<ItemId>(rng.UniformU64(d));
          ++guard;
          ones += !row[v];
          row[v] = 1;
        }
      }
      break;
    }
    case ProtocolKind::kOlh:
    case ProtocolKind::kBlh: {
      // The serial search draws one seed per try and keeps the first
      // try whose fullest bucket beats every earlier one, stopping
      // early once a try puts all r targets in one bucket.  It runs
      // here in blocks of kLocalHashLanes tries: the block's seeds
      // are drawn on a copy of the Rng and counted per bucket in one
      // LocalHashBlock call, the lanes are then scanned in try order,
      // and the real Rng advances by exactly the tries the serial loop
      // would have made.
      constexpr size_t kLanes = kLocalHashLanes;
      const uint32_t g = static_cast<const OlhBase&>(protocol).g();
      const size_t r = targets_.size();
      const LocalHashBlock block(targets_.data(), r, g);
      // counts[b * kLanes + k]: targets of lane k in bucket b.
      std::vector<uint32_t> counts(size_t{g} * kLanes);
      out.Reserve(m);
      for (size_t i = 0; i < m; ++i) {
        uint64_t best_seed = 0;
        uint32_t best_value = 0;
        uint32_t best_hits = 0;
        size_t tried = 0;
        while (tried < kMgaOlhSeedTries && best_hits < r) {
          uint64_t seeds[kLanes] = {};
          Rng ahead = rng;
          for (size_t k = 0; k < kLanes; ++k) seeds[k] = ahead.Next();
          uint32_t lane_max[kLanes];
          block.CountBuckets(seeds, counts.data(), lane_max);
          // Lanes whose fullest bucket beats the best so far, as a bit
          // mask in try order; only the lanes that win in turn pay
          // for the bucket scan.
          const auto beating = [&](size_t from) {
            uint32_t mask = 0;
            for (size_t k = from; k < kLanes; ++k)
              mask |= uint32_t{lane_max[k] > best_hits} << k;
            return mask;
          };
          size_t used = kLanes;
          for (uint32_t beat = beating(0); beat != 0;) {
            const size_t k = static_cast<size_t>(__builtin_ctz(beat));
            best_hits = lane_max[k];
            best_seed = seeds[k];
            // max_element's choice: the lowest bucket reaching the max.
            best_value = 0;
            while (counts[best_value * kLanes + k] != best_hits) ++best_value;
            if (best_hits == r) {  // cannot do better
              used = k + 1;
              break;
            }
            beat = beating(k + 1);
          }
          if (used == kLanes) {
            rng = ahead;
          } else {
            for (size_t k = 0; k < used; ++k) rng.Next();
          }
          tried += used;
        }
        LDPR_CHECK(best_hits >= 1);
        out.AddSeedValue(best_seed, best_value);
      }
      break;
    }
  }
}

}  // namespace ldpr
