// Tests for src/lint/ — the determinism/portability linter.
//
// Per-rule fixtures run through LintScannedTree on in-memory files
// (positive finding, pragma suppression, allowlist hit, stale
// allowlist error), a golden-byte lock on the GitHub annotation
// emitter, plus the golden run: the real tree, scanned with the real
// allowlist, must be clean — the same gate CI enforces via
// `ldpr_lint --repo=. src tools bench tests examples`.

#include "lint/lint.h"

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "lint/source_file.h"

namespace ldpr {
namespace lint {
namespace {

LintTree TreeOf(std::vector<std::pair<std::string, std::string>> files) {
  LintTree tree;
  for (auto& [path, text] : files) {
    tree.files.push_back(ScanSource(path, text));
  }
  return tree;
}

std::vector<Finding> Lint(const LintTree& tree,
                          const std::string& allowlist = "") {
  return LintScannedTree(tree, allowlist, "ci/lint_allowlist.txt").findings;
}

bool HasFinding(const std::vector<Finding>& findings, const std::string& rule,
                const std::string& path, size_t line) {
  for (const Finding& f : findings) {
    if (f.rule == rule && f.path == path && f.line == line) return true;
  }
  return false;
}

// ---------------------------------------------------------- scanner

TEST(SourceFileTest, BlanksCommentsAndLiterals) {
  const SourceFile file = ScanSource("src/ldp/x.cc", R"cpp(
int a = 1;  // std::rand in a comment
const char* s = "std::rand in a string";
/* block std::rand comment */ int b = 2;
char c = 'r';
const char* raw = R"x(std::rand in a raw string)x";
)cpp");
  for (const std::string& line : file.code_lines) {
    EXPECT_EQ(line.find("std::rand"), std::string::npos) << line;
  }
  // Code survives the blanking.
  EXPECT_NE(file.code_lines[1].find("int a = 1;"), std::string::npos);
  EXPECT_NE(file.code_lines[3].find("int b = 2;"), std::string::npos);
}

TEST(SourceFileTest, ExtractsPragmas) {
  const SourceFile file = ScanSource("src/ldp/x.cc", R"cpp(
double x = 0;  // lint: fp-order-ok(serial loop)
// lint: nondet-ok(test fixture)
int y = 0;
// lint: fp-order-ok()   <- empty reason never suppresses
int z = 0;
)cpp");
  ASSERT_EQ(file.pragmas.size(), 2u);
  EXPECT_EQ(file.pragmas[0].key, "fp-order");
  EXPECT_EQ(file.pragmas[0].reason, "serial loop");
  EXPECT_TRUE(file.SuppressedAt(2, "fp-order"));
  // Standalone pragma covers the next line.
  EXPECT_TRUE(file.SuppressedAt(4, "nondet"));
  EXPECT_FALSE(file.SuppressedAt(4, "fp-order"));
  EXPECT_FALSE(file.SuppressedAt(6, "fp-order"));
}

TEST(SourceFileTest, FindTokenRespectsIdentifierBoundaries) {
  EXPECT_EQ(FindToken("steady_clock::now()", "clock("), std::string::npos);
  EXPECT_NE(FindToken("clock()", "clock("), std::string::npos);
  EXPECT_EQ(FindToken("my_rand(3)", "rand("), std::string::npos);
  EXPECT_NE(FindToken("std::rand()", "std::rand"), std::string::npos);
}

// --------------------------------------------------------------- R1

TEST(RuleNondetTest, FlagsBannedSourcesInSrc) {
  const auto findings = Lint(TreeOf({{"src/ldp/grr.cc", R"cpp(
#include <random>
uint32_t Seed() {
  std::random_device rd;
  return rd();
}
)cpp"}}));
  ASSERT_TRUE(HasFinding(findings, "R1", "src/ldp/grr.cc", 4));
  // Findings format as file:line: [rule] message.
  EXPECT_EQ(FormatFinding(findings[0]).find("src/ldp/grr.cc:4: [R1] "), 0u);
}

TEST(RuleNondetTest, PragmaSuppresses) {
  const auto findings = Lint(TreeOf({{"src/ldp/grr.cc", R"cpp(
std::random_device rd;  // lint: nondet-ok(entropy for the CLI banner only)
)cpp"}}));
  EXPECT_TRUE(findings.empty());
}

TEST(RuleNondetTest, ClockWhitelistCoversExperimentAndBench) {
  const std::string clock_code = R"cpp(
auto t = std::chrono::steady_clock::now();
)cpp";
  EXPECT_TRUE(Lint(TreeOf({{"src/sim/experiment.cc", clock_code}})).empty());
  EXPECT_TRUE(Lint(TreeOf({{"bench/bench_x.cc", clock_code}})).empty());
  EXPECT_TRUE(HasFinding(Lint(TreeOf({{"src/ldp/grr.cc", clock_code}})), "R1",
                         "src/ldp/grr.cc", 2));
}

TEST(RuleNondetTest, ShuffleNeedsVisibleRng) {
  EXPECT_FALSE(Lint(TreeOf({{"src/data/x.cc", R"cpp(
void F() { std::shuffle(v.begin(), v.end(), urbg); }
)cpp"}})).empty());
  EXPECT_TRUE(Lint(TreeOf({{"src/data/x.cc", R"cpp(
void F(Rng& rng) { std::shuffle(v.begin(), v.end(), rng.Urbg()); }
)cpp"}})).empty());
}

TEST(RuleNondetTest, RawEnginesOnlyInUtilRandom) {
  const std::string engine = "std::mt19937 gen;\n";
  EXPECT_TRUE(Lint(TreeOf({{"src/util/random.cc", engine}})).empty());
  EXPECT_FALSE(Lint(TreeOf({{"src/ldp/grr.cc", engine}})).empty());
}

// --------------------------------------------------------------- R2

TEST(RuleUnorderedTest, FlagsIterationNotLookups) {
  const auto findings = Lint(TreeOf({{"src/data/x.cc", R"cpp(
std::unordered_map<std::string, size_t> ids;
void Lookup() { ids.emplace("a", 1); ids.find("a"); ids.count("a"); }
void Walk() {
  for (const auto& kv : ids) Use(kv);
}
void Iter() { auto it = ids.begin(); }
)cpp"}}));
  EXPECT_FALSE(HasFinding(findings, "R2", "src/data/x.cc", 3));
  EXPECT_TRUE(HasFinding(findings, "R2", "src/data/x.cc", 5));
  EXPECT_TRUE(HasFinding(findings, "R2", "src/data/x.cc", 7));
}

TEST(RuleUnorderedTest, PragmaSuppresses) {
  EXPECT_TRUE(Lint(TreeOf({{"src/data/x.cc", R"cpp(
std::unordered_set<int> seen;
// lint: unordered-iter-ok(order folded through a commutative reduction)
for (int v : seen) total ^= Hash(v);
)cpp"}})).empty());
}

// --------------------------------------------------------------- R3

constexpr char kFpLoop[] = R"cpp(
void Sum(const std::vector<double>& xs) {
  double total = 0.0;
  for (size_t i = 0; i < xs.size(); ++i) {
    total += xs[i];
  }
}
)cpp";

TEST(RuleFpOrderTest, FlagsFpAccumulationInLoopsInHotDirs) {
  EXPECT_TRUE(HasFinding(Lint(TreeOf({{"src/ldp/acc.cc", kFpLoop}})), "R3",
                         "src/ldp/acc.cc", 5));
  // Outside the hot directories the rule does not apply.
  EXPECT_TRUE(Lint(TreeOf({{"src/util/acc.cc", kFpLoop}})).empty());
  // Integer accumulation is not flagged.
  EXPECT_TRUE(Lint(TreeOf({{"src/ldp/intacc.cc", R"cpp(
void Count(const std::vector<uint64_t>& xs) {
  uint64_t n = 0;
  for (size_t i = 0; i < xs.size(); ++i) n += xs[i];
}
)cpp"}})).empty());
}

TEST(RuleFpOrderTest, MemberTypesComeFromPairedHeader) {
  const auto findings = Lint(TreeOf({
      {"src/recover/acc.h", "class A { double acc_ = 0; };\n"},
      {"src/recover/acc.cc", R"cpp(
void A::AddAll(const std::vector<int>& xs) {
  for (int x : xs) acc_ += x;
}
)cpp"},
  }));
  EXPECT_TRUE(HasFinding(findings, "R3", "src/recover/acc.cc", 3));
}

TEST(RuleFpOrderTest, AllowlistHitAndStaleEntry) {
  const LintTree tree = TreeOf({{"src/ldp/acc.cc", kFpLoop}});
  // A matching entry suppresses the finding and is not stale.
  EXPECT_TRUE(
      Lint(tree, "R3 src/ldp/acc.cc floating-point accumulation\n").empty());
  // A stale entry (nothing matches) is itself a finding.
  const auto stale =
      Lint(tree, "R3 src/ldp/acc.cc floating-point accumulation\n"
                 "R3 src/ldp/gone.cc floating-point accumulation\n");
  ASSERT_EQ(stale.size(), 1u);
  EXPECT_EQ(stale[0].rule, "allowlist");
  EXPECT_EQ(stale[0].line, 2u);
  EXPECT_NE(stale[0].message.find("stale"), std::string::npos);
}

TEST(RuleFpOrderTest, PragmaSuppresses) {
  EXPECT_TRUE(Lint(TreeOf({{"src/stream/acc.cc", R"cpp(
void F(const std::vector<double>& xs) {
  double total = 0.0;
  for (size_t i = 0; i < xs.size(); ++i) {
    total += xs[i];  // lint: fp-order-ok(serial fixed-order loop)
  }
}
)cpp"}})).empty());
}

// --------------------------------------------------------------- R4

constexpr char kCMakeWithGlob[] =
    "file(GLOB LDPR_TEST_SOURCES tests/*_test.cc)\n";

/// A workflow whose only step runs `step`.
std::string CiYaml(const std::string& step) {
  return "jobs:\n  test:\n    steps:\n      - run: " + step + "\n";
}

TEST(RuleRegistrationTest, CleanWhenConsistent) {
  const LintTree tree = TreeOf({
      {"tests/grr_test.cc", "int main() {}\n"},
      {"CMakeLists.txt", kCMakeWithGlob},
      {".github/workflows/ci.yml", CiYaml("ctest --output-on-failure -j")},
  });
  EXPECT_TRUE(Lint(tree).empty());
}

TEST(RuleRegistrationTest, ToolsNeedCMakeTargetAndCiInvocation) {
  // Clean: the tool source is named in CMake and `./build/mytool` (a
  // `/mytool` hit with a non-identifier follower) appears in CI.
  const std::string cmake =
      std::string(kCMakeWithGlob) + "add_executable(mytool tools/mytool.cc)\n";
  const LintTree clean = TreeOf({
      {"tests/grr_test.cc", "int main() {}\n"},
      {"tools/mytool.cc", "int main() {}\n"},
      {"CMakeLists.txt", cmake},
      {".github/workflows/ci.yml", CiYaml("./build/mytool --help")},
  });
  EXPECT_TRUE(Lint(clean).empty());

  // No CMake mention of the source file.
  const LintTree no_cmake = TreeOf({
      {"tests/grr_test.cc", "int main() {}\n"},
      {"tools/mytool.cc", "int main() {}\n"},
      {"CMakeLists.txt", kCMakeWithGlob},
      {".github/workflows/ci.yml", CiYaml("./build/mytool --help")},
  });
  const auto cmake_findings = Lint(no_cmake);
  ASSERT_EQ(cmake_findings.size(), 1u);
  EXPECT_EQ(cmake_findings[0].rule, "R4");
  EXPECT_NE(cmake_findings[0].message.find("no CMake target"),
            std::string::npos);

  // No CI invocation — and a prefix hit (`/mytool_extra`) must not
  // count as one, since the follower is an identifier character.
  const LintTree no_ci = TreeOf({
      {"tests/grr_test.cc", "int main() {}\n"},
      {"tools/mytool.cc", "int main() {}\n"},
      {"CMakeLists.txt", cmake},
      {".github/workflows/ci.yml", CiYaml("./build/mytool_extra --help")},
  });
  const auto ci_findings = Lint(no_ci);
  ASSERT_EQ(ci_findings.size(), 1u);
  EXPECT_EQ(ci_findings[0].rule, "R4");
  EXPECT_NE(ci_findings[0].message.find("never invoked by CI"),
            std::string::npos);
}

TEST(RuleRegistrationTest, FlagsMissingGlob) {
  const LintTree tree = TreeOf({
      {"tests/grr_test.cc", "int main() {}\n"},
      {"CMakeLists.txt", "add_executable(other tests/other_test.cc)\n"},
  });
  const auto findings = Lint(tree);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "R4");
  EXPECT_NE(findings[0].message.find("grr_test"), std::string::npos);
}

// --------------------------------------------------------------- R5

TEST(RuleHeaderGuardTest, CanonicalGuardRequired) {
  EXPECT_TRUE(Lint(TreeOf({{"src/ldp/grr.h", R"cpp(
#ifndef LDPR_LDP_GRR_H_
#define LDPR_LDP_GRR_H_
#endif
)cpp"}})).empty());

  const auto wrong = Lint(TreeOf({{"src/ldp/grr.h", R"cpp(
#ifndef LDPR_GRR_H_
#define LDPR_GRR_H_
#endif
)cpp"}}));
  ASSERT_TRUE(HasFinding(wrong, "R5", "src/ldp/grr.h", 2));
  EXPECT_NE(wrong[0].message.find("LDPR_LDP_GRR_H_"), std::string::npos);

  EXPECT_TRUE(HasFinding(Lint(TreeOf({{"src/ldp/grr.h", "int x;\n"}})), "R5",
                         "src/ldp/grr.h", 1));
}

// --------------------------------------------------------------- R6

// The layer contract fixtures opt in by carrying ci/lint_layers.txt;
// trees without it (every fixture above) skip R6 entirely.
constexpr char kTwoLayers[] = "util\nldp\n";

TEST(RuleLayeringTest, FlagsUpwardInclude) {
  const auto findings = Lint(TreeOf({
      {"ci/lint_layers.txt", kTwoLayers},
      {"src/ldp/b.h", "#ifndef LDPR_LDP_B_H_\n#define LDPR_LDP_B_H_\n#endif\n"},
      {"src/util/a.cc", "#include \"ldp/b.h\"\nint x;\n"},
  }));
  ASSERT_TRUE(HasFinding(findings, "R6", "src/util/a.cc", 1));
  bool saw_upward = false;
  for (const Finding& f : findings) {
    if (f.rule == "R6" && f.message.find("upward include") != std::string::npos)
      saw_upward = true;
  }
  EXPECT_TRUE(saw_upward);
}

TEST(RuleLayeringTest, DownwardIncludesAreClean) {
  EXPECT_TRUE(Lint(TreeOf({
                  {"ci/lint_layers.txt", kTwoLayers},
                  {"src/util/a.h",
                   "#ifndef LDPR_UTIL_A_H_\n#define LDPR_UTIL_A_H_\n#endif\n"},
                  {"src/ldp/b.cc", "#include \"util/a.h\"\nint x;\n"},
              })).empty());
}

TEST(RuleLayeringTest, FlagsUnlistedSubdir) {
  const auto findings = Lint(TreeOf({
      {"ci/lint_layers.txt", kTwoLayers},
      {"src/util/a.cc", "int x;\n"},
      {"src/ldp/b.cc", "int y;\n"},
      {"src/newdir/a.cc", "int z;\n"},
  }));
  ASSERT_EQ(findings.size(), 1u);
  ASSERT_TRUE(HasFinding(findings, "R6", "ci/lint_layers.txt", 1));
  EXPECT_NE(findings[0].message.find("src/newdir/"), std::string::npos);
}

TEST(RuleLayeringTest, FlagsStaleLayerLine) {
  // A line naming a src/ subdir that no longer exists is reported at
  // that line, the way stale allowlist entries are.
  const auto findings = Lint(TreeOf({
      {"ci/lint_layers.txt", "util\nkv\nldp\n"},
      {"src/util/a.cc", "int x;\n"},
      {"src/ldp/b.cc", "int y;\n"},
  }));
  ASSERT_EQ(findings.size(), 1u);
  ASSERT_TRUE(HasFinding(findings, "R6", "ci/lint_layers.txt", 2));
  EXPECT_NE(findings[0].message.find("stale layer 'kv'"), std::string::npos);
}

TEST(RuleLayeringTest, FlagsIncludeCycle) {
  const auto findings = Lint(TreeOf({
      {"ci/lint_layers.txt", kTwoLayers},
      {"src/util/c.cc", "int x;\n"},
      {"src/ldp/a.h",
       "#ifndef LDPR_LDP_A_H_\n#define LDPR_LDP_A_H_\n"
       "#include \"ldp/b.h\"\n#endif\n"},
      {"src/ldp/b.h",
       "#ifndef LDPR_LDP_B_H_\n#define LDPR_LDP_B_H_\n"
       "#include \"ldp/a.h\"\n#endif\n"},
  }));
  bool saw_cycle = false;
  for (const Finding& f : findings) {
    if (f.rule == "R6" && f.message.find("include cycle") != std::string::npos)
      saw_cycle = true;
  }
  EXPECT_TRUE(saw_cycle);
}

TEST(RuleLayeringTest, PragmaSuppressesUpwardInclude) {
  EXPECT_TRUE(Lint(TreeOf({
                  {"ci/lint_layers.txt", kTwoLayers},
                  {"src/ldp/b.h",
                   "#ifndef LDPR_LDP_B_H_\n#define LDPR_LDP_B_H_\n#endif\n"},
                  {"src/util/a.cc",
                   "// lint: layering-ok(transitional, tracked in ROADMAP)\n"
                   "#include \"ldp/b.h\"\nint x;\n"},
              })).empty());
}

// --------------------------------------------------------------- R8

TEST(RuleSeedTest, FlagsLiteralSeeds) {
  const auto findings = Lint(TreeOf({{"src/sim/x.cc", R"cpp(
void F() {
  Rng rng(123);
}
)cpp"}}));
  ASSERT_TRUE(HasFinding(findings, "R8", "src/sim/x.cc", 3));
  EXPECT_NE(findings[0].message.find("DeriveSeed"), std::string::npos);
}

TEST(RuleSeedTest, DerivedAndNamedSeedsAreClean) {
  EXPECT_TRUE(Lint(TreeOf({{"src/sim/x.cc", R"cpp(
void F(uint64_t seed, size_t chunk, const Config& config) {
  Rng a(DeriveSeed(seed, chunk));
  Rng b(trial_seed);
  Rng c(config.seed);
  Rng d(kDemoSeed);
}
)cpp"}})).empty());
}

TEST(RuleSeedTest, FlagsByValueRngParameter) {
  const auto findings = Lint(TreeOf({{"src/sim/x.cc", R"cpp(
double G(Rng rng);
double H(Rng& rng);
double I(const Rng* rng);
)cpp"}}));
  ASSERT_TRUE(HasFinding(findings, "R8", "src/sim/x.cc", 2));
  EXPECT_NE(findings[0].message.find("forks the stream"), std::string::npos);
  EXPECT_FALSE(HasFinding(findings, "R8", "src/sim/x.cc", 3));
  EXPECT_FALSE(HasFinding(findings, "R8", "src/sim/x.cc", 4));
}

TEST(RuleSeedTest, MemberDeclarationsAndUtilRandomAreExempt) {
  EXPECT_TRUE(Lint(TreeOf({{"src/stream/arrival.h", R"cpp(
#ifndef LDPR_STREAM_ARRIVAL_H_
#define LDPR_STREAM_ARRIVAL_H_
class A {
  Rng rng_;
};
#endif  // LDPR_STREAM_ARRIVAL_H_
)cpp"}})).empty());
  EXPECT_TRUE(
      Lint(TreeOf({{"src/util/random.cc", "Rng MakeDefault() { return "
                                          "Rng(0x9E3779B97F4A7C15ULL); }\n"}}))
          .empty());
}

TEST(RuleSeedTest, ExamplesAreCoveredTestsAreNot) {
  // examples/*.cpp are runnable docs and lint like product code;
  // tests/ pin literal seeds on purpose and stay exempt.
  EXPECT_TRUE(HasFinding(Lint(TreeOf({{"examples/demo.cpp",
                                       "int main() { Rng rng(5); }\n"}})),
                         "R8", "examples/demo.cpp", 1));
  EXPECT_TRUE(Lint(TreeOf({{"tests/foo_test.cc",
                            "void T() { Rng rng(5); }\n"}}))
                  .empty());
}

TEST(RuleSeedTest, PragmaSuppresses) {
  EXPECT_TRUE(Lint(TreeOf({{"src/sim/x.cc", R"cpp(
void F() {
  Rng rng(123);  // lint: seed-ok(calibration stream, never trial-visible)
}
)cpp"}})).empty());
}

// ----------------------------------------------------- github format

const std::vector<Finding> kEmitterFindings = {
    {"src/ldp/grr.cc", 4, "R1", "uses std::random_device"},
    {"src/sim/x.cc", 9, "R8", "Rng constructed from '42'"},
};

TEST(FormatTest, GithubGoldenBytes) {
  EXPECT_EQ(FindingsToGithub(kEmitterFindings),
            "::error file=src/ldp/grr.cc,line=4,title=ldpr_lint R1::"
            "[R1] uses std::random_device\n"
            "::error file=src/sim/x.cc,line=9,title=ldpr_lint R8::"
            "[R8] Rng constructed from '42'\n");
  // Workflow-command escaping of %, CR, LF.
  const std::vector<Finding> tricky = {{"a.cc", 1, "R1", "50% bad\nnext"}};
  EXPECT_EQ(FindingsToGithub(tricky),
            "::error file=a.cc,line=1,title=ldpr_lint R1::"
            "[R1] 50%25 bad%0Anext\n");
}

// ------------------------------------------------------- golden run

#ifdef LDPR_SOURCE_DIR
// The roots the repo gates on.  ldpr_lint_clean in CMakeLists.txt and
// the CI lint job must scan exactly this list; the assertion below
// keeps them from drifting apart.
const std::vector<std::string> kGoldenRoots = {"src", "tools", "bench",
                                               "tests", "examples"};

TEST(GoldenTreeTest, RealTreeIsClean) {
  LintOptions options;
  options.repo_root = LDPR_SOURCE_DIR;
  options.allowlist_path = "ci/lint_allowlist.txt";
  options.roots = kGoldenRoots;
  auto result = RunLint(options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  for (const Finding& finding : result.value().findings) {
    ADD_FAILURE() << FormatFinding(finding);
  }
  EXPECT_GT(result.value().files_scanned, 100u);
}

TEST(GoldenTreeTest, CMakeGateScansTheSameRoots) {
  std::ifstream in(std::string(LDPR_SOURCE_DIR) + "/CMakeLists.txt");
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  std::string expected;
  for (const std::string& root : kGoldenRoots) {
    expected += expected.empty() ? root : " " + root;
  }
  // The ldpr_lint_clean ctest entry must name exactly these roots, in
  // this order, as the trailing arguments of its COMMAND.
  EXPECT_NE(buffer.str().find(expected + ")"), std::string::npos)
      << "ldpr_lint_clean in CMakeLists.txt does not scan '" << expected
      << "'";
}

TEST(GoldenTreeTest, SeededViolationIsCaught) {
  // The acceptance probe: a tree where src/ldp/grr.cc gains an R1
  // violation must produce exactly that finding, naming file, line,
  // and rule id.
  LintTree tree;
  tree.files.push_back(ScanSource(
      "src/ldp/grr.cc", "uint32_t Seed() { return std::random_device{}(); }\n"));
  const LintResult seeded = LintScannedTree(tree, "", "");
  ASSERT_EQ(seeded.findings.size(), 1u);
  EXPECT_EQ(seeded.findings[0].rule, "R1");
  EXPECT_EQ(seeded.findings[0].path, "src/ldp/grr.cc");
  EXPECT_EQ(seeded.findings[0].line, 1u);
}
#endif  // LDPR_SOURCE_DIR

}  // namespace
}  // namespace lint
}  // namespace ldpr
