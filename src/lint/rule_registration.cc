// R4 — test and tool registration.
//
// The suite only protects what it runs.  This rule cross-checks the
// sources of truth that historically drift apart by hand-editing:
//   - CMakeLists.txt must register every tests/*_test.cc (the repo
//     does this with one glob; if the glob disappears, every test
//     file must be named explicitly or the rule fires);
//   - every tools/*.cc main must have a CMake target (a source
//     mention) and at least one CI smoke invocation (`/<tool> ...`) —
//     an unbuilt tool bit-rots, an uninvoked one regresses silently.
//
// What the sanitizers cover needs no check here: the CI sanitizer
// matrix runs the whole ctest suite, so every registered test runs
// under every sanitizer.
//
// This is a repo-level rule: it reads CMakeLists.txt and the CI
// workflow out of the scanned tree (raw lines — they are not C++),
// and has no pragma escape; fix the wiring instead.

#include <string>
#include <vector>

#include "lint/lint.h"

namespace ldpr {
namespace lint {
namespace {

bool AnyLineContains(const SourceFile& file, const std::string& needle) {
  for (const std::string& line : file.raw_lines) {
    if (line.find(needle) != std::string::npos) return true;
  }
  return false;
}

/// Stems ("grr_test", "ldpr") of the files under `dir` whose names
/// end in `suffix`, which ends in ".cc".
std::vector<std::string> StemsUnder(const LintTree& tree, const std::string& dir,
                                    const char* suffix) {
  std::vector<std::string> stems;
  for (const SourceFile& file : tree.files) {
    if (file.path.compare(0, dir.size(), dir) == 0 &&
        EndsWith(file.path, suffix)) {
      const size_t stem_size = file.path.size() - dir.size() - 3;
      stems.push_back(file.path.substr(dir.size(), stem_size));
    }
  }
  return stems;
}

}  // namespace

void CheckTestRegistration(const LintTree& tree, std::vector<Finding>* out) {
  const SourceFile* cmake = tree.Find("CMakeLists.txt");
  const SourceFile* workflow = tree.Find(".github/workflows/ci.yml");
  if (cmake == nullptr) return;  // fixture trees without build files

  // (a) the registration glob — or an explicit mention of every test.
  if (!AnyLineContains(*cmake, "tests/*_test.cc")) {
    for (const std::string& test : StemsUnder(tree, "tests/", "_test.cc")) {
      if (!AnyLineContains(*cmake, "tests/" + test + ".cc")) {
        out->push_back(Finding{
            "CMakeLists.txt", 1, "R4",
            "tests/" + test + ".cc is not registered: no tests/*_test.cc "
            "glob and no explicit add_executable source mention"});
      }
    }
  }

  // (b) every tools/*.cc main has a build target: its source file
  // must be named somewhere in CMakeLists.txt (add_executable).
  const std::vector<std::string> tools = StemsUnder(tree, "tools/", ".cc");
  for (const std::string& tool : tools) {
    if (!AnyLineContains(*cmake, "tools/" + tool + ".cc")) {
      out->push_back(Finding{
          "CMakeLists.txt", 1, "R4",
          "tools/" + tool + ".cc has no CMake target: add_executable must "
          "name the source file"});
    }
  }

  // (c) every tool is smoke-invoked somewhere in CI: a `/<tool>`
  // occurrence followed by a non-identifier character (so ldpr does
  // not match ldpr_lint's path).
  if (workflow == nullptr) return;
  for (const std::string& tool : tools) {
    const std::string needle = "/" + tool;
    bool invoked = false;
    for (const std::string& line : workflow->raw_lines) {
      for (size_t at = line.find(needle); at != std::string::npos;
           at = line.find(needle, at + 1)) {
        const size_t after = at + needle.size();
        if (after >= line.size() || !IsIdentChar(line[after])) {
          invoked = true;
          break;
        }
      }
      if (invoked) break;
    }
    if (!invoked) {
      out->push_back(Finding{
          workflow->path, 1, "R4",
          "tools/" + tool + ".cc is never invoked by CI: add a smoke step "
          "running the built binary"});
    }
  }
}

}  // namespace lint
}  // namespace ldpr
