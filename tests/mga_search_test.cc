// MGA's OLH/BLH seed search hashes blocks of the trial's seed stream
// on the pool (attack/mga.cc).  Crafted through MakeAttack, as a trial
// does, its reports and Rng position must equal the serial oracle's at
// every shard count, over enough reports to cross several search
// blocks.  Registered with LDPR_THREADS=4, so the parallel path runs
// even on a single-core machine.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "attack/mga.h"
#include "ldp/blh.h"
#include "ldp/olh.h"
#include "report_oracle.h"
#include "sim/pipeline.h"
#include "util/random.h"

namespace ldpr {
namespace {

struct SearchCase {
  std::string name;
  std::unique_ptr<OlhBase> protocol;
  size_t r;
  size_t m;
};

TEST(MgaSearchTest, ShardCountNeverChangesReportsOrRngPosition) {
  constexpr size_t kD = 102;
  std::vector<SearchCase> cases;
  // r = 4 in g = 4 stops early on 1 try in 64, r = 5 in g = 2 on 1
  // in 16; r = 10 in g = 4 almost never does, so its reports use all
  // 64 tries.
  cases.push_back({"OLH r=4", std::make_unique<Olh>(kD, 1.0, 4), 4, 12000});
  cases.push_back({"BLH r=5", std::make_unique<Blh>(kD, 1.0), 5, 30000});
  cases.push_back({"OLH r=10", std::make_unique<Olh>(kD, 1.0, 4), 10,
                   2 * kMgaSearchBlockSeeds / kMgaOlhSeedTries + 100});
  bool straddled_block = false;
  bool stopped_early = false;
  for (const SearchCase& c : cases) {
    const uint64_t seed = 7000 + c.r;
    Rng oracle_rng(seed);
    const std::vector<ItemId> targets =
        MgaAttack::SampleTargets(kD, c.r, oracle_rng);
    std::vector<Report> expected;
    size_t position = 0;  // seed-stream offset of the report's first try
    for (size_t i = 0; i < c.m; ++i) {
      size_t tries = 0;
      expected.push_back(
          oracle::CraftMgaOlh(*c.protocol, targets, oracle_rng, &tries));
      if (position / kMgaSearchBlockSeeds !=
          (position + tries - 1) / kMgaSearchBlockSeeds)
        straddled_block = true;
      if (tries < kMgaOlhSeedTries) stopped_early = true;
      position += tries;
    }
    ASSERT_GT(position, 2 * kMgaSearchBlockSeeds)
        << c.name << ": the tries must span at least 3 search blocks";
    for (size_t shards : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
      const std::string what = c.name + " shards=" + std::to_string(shards);
      PipelineConfig config;
      config.attack = AttackKind::kMga;
      config.num_targets = c.r;
      config.shards = shards;
      Rng rng(seed);
      const std::unique_ptr<Attack> attack = MakeAttack(config, kD, rng);
      ASSERT_NE(attack, nullptr) << what;
      EXPECT_EQ(attack->targets(), targets) << what;
      const std::vector<Report> actual =
          CraftReports(*attack, *c.protocol, c.m, rng);
      ASSERT_EQ(actual.size(), expected.size()) << what;
      size_t mismatches = 0;
      for (size_t i = 0; i < actual.size(); ++i) {
        if (actual[i].seed != expected[i].seed ||
            actual[i].value != expected[i].value) {
          if (++mismatches <= 3) ADD_FAILURE() << what << " report " << i;
        }
      }
      EXPECT_EQ(mismatches, 0u) << what;
      Rng oracle_after = oracle_rng;
      EXPECT_EQ(oracle_after.Next(), rng.Next()) << what;
    }
  }
  EXPECT_TRUE(straddled_block);
  EXPECT_TRUE(stopped_early);
}

}  // namespace
}  // namespace ldpr
