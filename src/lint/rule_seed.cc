// R8 — seed discipline for Rng construction.
//
// Trial streams stay independent only because every Rng is keyed by a
// counter-derived seed (util/random's DeriveSeed(seed, stream)).  A
// fresh `Rng(42)` somewhere in a trial path silently correlates with
// every other literal-42 stream, and a function taking `Rng` by value
// forks the stream — both caller and callee replay the same draws.
// So outside util/random (the one home of raw seeding) every `Rng`
// construction must visibly take a DeriveSeed(...) expression or an
// identifier whose name ends in `seed` (`trial_seed`, `config.seed`),
// and `Rng` parameters must be passed by reference or pointer.
// tests/ are exempt: fixture determinism *wants* pinned literals.
//
// Escape hatch: `// lint: seed-ok(<reason>)` or an `R8 <path>
// <substring>` allowlist entry.

#include <string>
#include <vector>

#include "lint/lint.h"

namespace ldpr {
namespace lint {
namespace {

/// True when the argument text of an Rng construction shows seed
/// provenance: a DeriveSeed(...) call or an identifier ending in
/// "seed" (covers `seed`, `trial_seed`, `config.seed`, `spec.seed`).
bool HasSeedEvidence(const std::string& args) {
  if (FindToken(args, "DeriveSeed") != std::string::npos) return true;
  for (size_t i = 0; i < args.size(); ++i) {
    if (!IsIdentChar(args[i]) || (i > 0 && IsIdentChar(args[i - 1]))) continue;
    size_t end = i;
    while (end < args.size() && IsIdentChar(args[end])) ++end;
    const std::string token = args.substr(i, end - i);
    std::string lowered = token;
    for (char& c : lowered) {
      if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
    }
    if (EndsWith(lowered, "seed")) return true;
    i = end;
  }
  return false;
}

/// The balanced argument text after the '(' or '{' at `open` on
/// `line`, or "" on imbalance (multi-line constructions are rare and
/// skipped rather than mis-parsed).
std::string BalancedArgs(const std::string& line, size_t open) {
  const char open_c = line[open];
  const char close_c = open_c == '(' ? ')' : '}';
  int depth = 0;
  for (size_t i = open; i < line.size(); ++i) {
    if (line[i] == open_c) ++depth;
    if (line[i] == close_c && --depth == 0) {
      return line.substr(open + 1, i - open - 1);
    }
  }
  return "";
}

}  // namespace

void CheckSeedDiscipline(const SourceFile& file, std::vector<Finding>* out) {
  if (StartsWith(file.path, "src/util/random.")) return;  // the seed layer

  for (size_t i = 0; i < file.code_lines.size(); ++i) {
    const std::string& line = file.code_lines[i];
    for (size_t pos = FindToken(line, "Rng"); pos != std::string::npos;
         pos = FindToken(line, "Rng", pos + 1)) {
      size_t after = pos + 3;
      while (after < line.size() && line[after] == ' ') ++after;
      if (after >= line.size()) break;
      const char next = line[after];
      if (next == '&' || next == '*' || next == ':') continue;  // ref/ptr/Rng::

      // `Rng name` — a declaration: construction `Rng name(args)` /
      // `Rng name{args}`, or a by-value parameter `Rng name,` /
      // `Rng name)`.
      std::string args;
      bool have_construction = false;
      if (IsIdentChar(next)) {
        size_t name_end = after;
        while (name_end < line.size() && IsIdentChar(line[name_end])) {
          ++name_end;
        }
        size_t open = name_end;
        while (open < line.size() && line[open] == ' ') ++open;
        if (open < line.size() && (line[open] == '(' || line[open] == '{')) {
          args = BalancedArgs(line, open);
          have_construction = true;
        } else if (open < line.size() &&
                   (line[open] == ',' || line[open] == ')')) {
          out->push_back(Finding{
              file.path, i + 1, "R8",
              "Rng parameter '" + line.substr(after, name_end - after) +
                  "' is passed by value: copying an Rng forks the stream "
                  "(caller and callee replay the same draws) — take Rng& "
                  "or add `// lint: seed-ok(<reason>)`"});
          continue;
        } else {
          continue;  // `Rng name;` member declarations etc.
        }
      } else if (next == '(' || next == '{') {
        // Temporary: `Rng(expr)` / `Rng{expr}`.
        args = BalancedArgs(line, after);
        have_construction = true;
      }
      if (!have_construction) continue;
      if (HasSeedEvidence(args)) continue;
      const bool empty =
          args.find_first_not_of(" \t") == std::string::npos;
      out->push_back(Finding{
          file.path, i + 1, "R8",
          std::string("Rng constructed ") +
              (empty ? "without an explicit seed"
                     : "from '" + args + "'") +
              ": seeds must visibly derive from the trial stream — pass "
              "DeriveSeed(...) or a *_seed identifier, or add "
              "`// lint: seed-ok(<reason>)`"});
    }
  }
}

}  // namespace lint
}  // namespace ldpr
