#include "attack/mga.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>

#include "ldp/olh.h"
#include "ldp/unary.h"
#include "util/logging.h"
#include "util/simd.h"
#include "util/thread_pool.h"

namespace ldpr {

// Seeds per ParallelFor index of the OLH/BLH search: 128 reports'
// tries.  Kept coarse, because a caller that is not a pool worker
// sleeps until its loop is done instead of helping.
constexpr size_t kChunkSeeds = 128 * kMgaOlhSeedTries;

// Seeds of a wave of the search before any report is emitted: one
// AVX-512 pass.
constexpr size_t kFirstWaveSeeds = 16;

MgaAttack::MgaAttack(std::vector<ItemId> targets, size_t threads)
    : targets_(std::move(targets)), threads_(threads) {
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
      // early once a try puts all r targets in one bucket.  A try's
      // fullest-bucket count and lowest such bucket are a pure
      // function of its seed, and report i+1's tries start where
      // report i's stopped.  So blocks of the seed stream are drawn on
      // a copy of the Rng, their max loads are computed in parallel
      // chunks, and an in-order scan replays the serial loop's
      // improvements and early stops, carrying a report's running best
      // across block boundaries.  The real Rng then advances by
      // exactly the tries made.
      const uint32_t g = static_cast<const OlhBase&>(protocol).g();
      const size_t r = targets_.size();
      const LocalHashBlock hashes(targets_.data(), r, g);
      // A block never holds more seeds than the searches can use, and
      // one search's (a streaming call's) stays on the stack.  The heap
      // scratch is left uninitialized: a wave writes what it reads.
      const size_t capacity =
          std::min(kMgaSearchBlockSeeds, m * kMgaOlhSeedTries);
      uint64_t stack_seeds[kMgaOlhSeedTries] = {};
      uint32_t stack_loads[2 * kMgaOlhSeedTries] = {};
      std::unique_ptr<uint64_t[]> heap_seeds;
      std::unique_ptr<uint32_t[]> heap_loads;
      uint64_t* seeds = stack_seeds;
      uint32_t* loads = stack_loads;
      if (capacity > kMgaOlhSeedTries) {
        heap_seeds.reset(new uint64_t[capacity]);
        heap_loads.reset(new uint32_t[2 * capacity]);
        seeds = heap_seeds.get();
        loads = heap_loads.get();
      }
      uint32_t* const max_hits = loads;
      uint32_t* const first_bucket = loads + capacity;
      out.Reserve(m);
      // Max loads of seeds[begin, end): one chunk inline, which spares
      // small calls the std::function, else chunks on the pool.
      const auto hash_range = [&](size_t begin, size_t end) {
        if (end - begin <= kChunkSeeds) {
          hashes.MaxLoads(seeds + begin, end - begin, max_hits + begin,
                          first_bucket + begin);
          return;
        }
        ParallelFor(threads_, (end - begin + kChunkSeeds - 1) / kChunkSeeds,
                    [&](size_t c) {
                      const size_t from = begin + c * kChunkSeeds;
                      hashes.MaxLoads(seeds + from,
                                      std::min(end - from, kChunkSeeds),
                                      max_hits + from, first_bucket + from);
                    });
      };
      size_t done = 0;   // reports emitted
      size_t used = 0;   // tries of the emitted reports
      size_t tried = 0;  // tries of the report in progress
      uint64_t best_seed = 0;
      uint32_t best_value = 0;
      uint32_t best_hits = 0;
      while (done < m) {
        const size_t n =
            std::min(capacity, (m - done) * kMgaOlhSeedTries - tried);
        // The block is drawn, hashed and scanned in waves.  Until a
        // report is emitted a wave is kFirstWaveSeeds; after that it is
        // what the remaining reports use at the mean tries per report
        // so far, so searches that stop early do not draw or hash the
        // rest of the block.
        Rng ahead = rng;
        size_t drawn = 0;
        size_t k = 0;
        while (k < n && done < m) {
          const size_t want =
              done == 0 ? 0 : (used + done - 1) / done * (m - done);
          drawn = k + std::min(n - k, std::max(want, kFirstWaveSeeds));
          for (size_t j = k; j < drawn; ++j) seeds[j] = ahead.Next();
          hash_range(k, drawn);
          for (; k < drawn && done < m; ++k) {
            if (max_hits[k] > best_hits) {
              best_hits = max_hits[k];
              best_seed = seeds[k];
              best_value = first_bucket[k];
            }
            if (++tried == kMgaOlhSeedTries || best_hits == r) {
              LDPR_CHECK(best_hits >= 1);
              out.AddSeedValue(best_seed, best_value);
              ++done;
              used += tried;
              tried = 0;
              best_hits = 0;
            }
          }
        }
        // Only the last wave can end before its final seed.
        if (k == drawn) {
          rng = ahead;
        } else {
          for (size_t j = 0; j < k; ++j) rng.Next();
        }
      }
      break;
    }
  }
}

}  // namespace ldpr
