// Deterministic mutation fuzzing of the text parsers that user input
// and result trees reach: ParseJson (over committed manifests),
// SplitCsvLine and LoadItemCsv, and FlagParser + ParseTrialFlags.
// Each case makes seeded mutations of a valid input (bit flips, byte
// and token insertions, truncations and duplicated separators) and
// requires that the parser returns instead of crashing, and that
// everything it accepts respects the documented ranges.  Fixed seeds
// and iteration counts make every run the same; the sanitizer builds
// run it too.

#include <cmath>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cli/cli.h"
#include "data/loader.h"
#include "util/csv.h"
#include "util/flags.h"
#include "util/json_reader.h"
#include "util/random.h"

namespace ldpr {
namespace {

constexpr int kIterations = 3000;

// Bytes the three grammars give meaning to, so insertions reach past
// the first syntax check more often than random bytes would.
constexpr char kAlphabet[] = "{}[]\",:=-+.eE0123456789nafitx \\\r\n";
constexpr char kSeparators[] = ",:=\"{}[] \n";
// Tokens that land on a parser's edge cases when spliced into a
// number or a literal.
constexpr const char* kTokens[] = {"inf", "nan", "e999", "e-999", "-",
                                   "99999999999999999999", "0x1p4",
                                   "\\u00", "null", "\"\""};

/// One to four seeded edits of `input`.
std::string Mutate(const std::string& input, Rng& rng) {
  std::string s = input;
  const uint64_t edits = 1 + rng.UniformU64(4);
  for (uint64_t e = 0; e < edits; ++e) {
    const size_t at = rng.UniformU64(s.size() + 1);
    switch (rng.UniformU64(7)) {
      case 0:  // flip one bit
        if (at < s.size()) s[at] ^= static_cast<char>(1u << rng.UniformU64(8));
        break;
      case 1:  // insert a grammar byte
        s.insert(at, 1, kAlphabet[rng.UniformU64(sizeof(kAlphabet) - 1)]);
        break;
      case 2:  // insert any byte
        s.insert(at, 1, static_cast<char>(rng.Next()));
        break;
      case 3:  // splice an edge-case token
        s.insert(at, kTokens[rng.UniformU64(std::size(kTokens))]);
        break;
      case 4:  // truncate
        s.resize(at);
        break;
      default: {  // duplicate the next separator
        const size_t sep = s.find_first_of(kSeparators, at);
        if (sep != std::string::npos) s.insert(sep, 1, s[sep]);
        break;
      }
    }
  }
  return s;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  return text.str();
}

size_t CountNodes(const JsonValue& value) {
  size_t nodes = 1;
  for (const JsonValue& item : value.array()) nodes += CountNodes(item);
  for (const auto& member : value.object()) nodes += CountNodes(member.second);
  return nodes;
}

bool AllNumbersFinite(const JsonValue& value) {
  if (value.is_number()) return std::isfinite(value.number());
  for (const JsonValue& item : value.array()) {
    if (!AllNumbersFinite(item)) return false;
  }
  for (const auto& member : value.object()) {
    if (!AllNumbersFinite(member.second)) return false;
  }
  return true;
}

TEST(ParserFuzzTest, ParseJsonOverManifests) {
  Rng rng(0x6a736f6e);
  for (const char* manifest : {"manifest.json", "fig3/manifest.json"}) {
    const std::string text =
        ReadFile(std::string(LDPR_SOURCE_DIR) + "/ci/baseline/" + manifest);
    const auto clean = ParseJson(text);
    ASSERT_TRUE(clean.ok()) << manifest << ": " << clean.status().ToString();
    ASSERT_TRUE(clean->is_object());
    size_t accepted = 0;
    for (int i = 0; i < kIterations; ++i) {
      const std::string mutated = Mutate(text, rng);
      const auto parsed = ParseJson(mutated);
      if (!parsed.ok()) {
        EXPECT_NE(parsed.status().ToString().find("JSON parse error at byte"),
                  std::string::npos);
        continue;
      }
      ++accepted;
      // Every value the parser builds consumed at least one byte, and
      // no number is inf or NaN (JSON has neither).
      EXPECT_LE(CountNodes(*parsed), mutated.size());
      EXPECT_TRUE(AllNumbersFinite(*parsed)) << mutated;
    }
    // Flips inside strings and digits keep some documents valid.
    EXPECT_GT(accepted, 0u) << manifest;
  }
}

TEST(ParserFuzzTest, SplitCsvLine) {
  const std::string line = "E01,\"Fire, Station 3\",\"say \"\"hi\"\"\",,42";
  Rng rng(0x637376);
  for (int i = 0; i < kIterations; ++i) {
    const std::string mutated = Mutate(line, rng);
    const std::vector<std::string> fields = SplitCsvLine(mutated);
    ASSERT_FALSE(fields.empty());
    size_t bytes = 0;
    for (const std::string& field : fields) bytes += field.size();
    EXPECT_LE(bytes, mutated.size());
    if (mutated.find('"') != std::string::npos) continue;
    // Without quotes a line is its fields joined by commas, CRs
    // dropped.
    std::string joined = fields[0];
    for (size_t f = 1; f < fields.size(); ++f) joined += "," + fields[f];
    std::string without_cr;
    for (const char c : mutated) {
      if (c != '\r') without_cr.push_back(c);
    }
    EXPECT_EQ(joined, without_cr);
  }
}

TEST(ParserFuzzTest, LoadItemCsv) {
  const std::string text =
      "unit,station\nE01,\"Fire, Station 3\"\nE02,x\nE01,y\n\"E,03\",z\n";
  const std::string path = ::testing::TempDir() + "/ldpr_parser_fuzz.csv";
  Rng rng(0x6c6f6164);
  for (int i = 0; i < kIterations / 10; ++i) {
    {
      std::ofstream out(path, std::ios::binary);
      out << Mutate(text, rng);
    }
    LoadOptions options;
    options.column = static_cast<size_t>(i % 2);
    const auto loaded = LoadItemCsv(path, options);
    if (!loaded.ok()) continue;
    // Accepted files hold at least two distinct items, one label and
    // a nonzero count per item, and one user per data row.
    const Dataset& dataset = loaded->dataset;
    EXPECT_GE(dataset.domain_size(), 2u);
    EXPECT_EQ(loaded->item_labels.size(), dataset.domain_size());
    for (const uint64_t count : dataset.item_counts) EXPECT_GE(count, 1u);
    const auto rows = ReadCsvFile(path);
    ASSERT_TRUE(rows.ok());
    EXPECT_EQ(dataset.num_users(), rows->size() - 1);
  }
  std::remove(path.c_str());
}

TEST(ParserFuzzTest, TrialFlags) {
  const std::string command_line =
      "--protocol=OUE --attack=MGA --dataset=zipf --d=16 --n=2000 "
      "--scale=0.5 --epsilon=1.5 --beta=0.05 --eta=0.2 --targets=3 --seed=7";
  Rng rng(0x666c6167);
  size_t accepted = 0;
  for (int i = 0; i < kIterations; ++i) {
    const std::string mutated = Mutate(command_line, rng);
    // Split on single spaces, so a duplicated one yields an empty
    // positional argument.
    std::vector<std::string> args = {"ldpr"};
    std::string token;
    for (const char c : mutated) {
      if (c == ' ') {
        args.push_back(token);
        token.clear();
      } else {
        token.push_back(c);
      }
    }
    args.push_back(token);
    std::vector<const char*> argv;
    for (const std::string& arg : args) argv.push_back(arg.c_str());
    const FlagParser flags(static_cast<int>(argv.size()), argv.data());

    for (const char* name : {"scale", "epsilon", "beta", "eta", "d", "n"}) {
      const auto value = flags.GetDouble(name, 0.0);
      EXPECT_TRUE(!value.ok() || std::isfinite(*value)) << mutated;
    }
    const auto trial = cli::ParseTrialFlags(flags, "zipf", "MGA");
    if (!trial.ok()) continue;
    ++accepted;
    EXPECT_GT(trial->epsilon, 0.0) << mutated;
    EXPECT_LE(trial->epsilon, cli::kMaxEpsilon) << mutated;
    EXPECT_GT(trial->scale, 0.0) << mutated;
    EXPECT_LE(trial->scale, 1.0) << mutated;
    EXPECT_TRUE(trial->d == 0 ||
                (trial->d >= 2 && trial->d <= cli::kMaxDomainSize))
        << mutated;
    EXPECT_LE(trial->n, static_cast<uint64_t>(cli::kMaxUsers)) << mutated;
    EXPECT_TRUE(std::isfinite(trial->eta)) << mutated;
    EXPECT_TRUE(std::isfinite(trial->beta)) << mutated;
  }
  EXPECT_GT(accepted, 0u);
}

}  // namespace
}  // namespace ldpr
