// R1 — banned nondeterminism sources.
//
// Every random draw in this codebase must flow through util/random's
// counter-seeded Rng (DeriveSeed streams), and wall-clock reads are
// confined to declared timing columns; anything else can silently
// break the bit-identical-results contract.  The token list below is
// the denylist; string literals and comments never match (the scanner
// blanked them), and `// lint: nondet-ok(<reason>)` suppresses a
// deliberate exception.

#include <string>
#include <vector>

#include "lint/lint.h"

namespace ldpr {
namespace lint {
namespace {

struct BannedToken {
  const char* token;
  const char* why;
  // Wall-clock tokens are whitelisted in sim/experiment.cc (the one
  // timing-column producer in src/) and in bench drivers.
  bool is_clock = false;
  // std::shuffle/std::sample are fine when the call visibly takes the
  // repo Rng; anything else (default URBG, raw std engine) is not.
  bool rng_arg_exempts = false;
  // Raw engines live in util/random only; everything else derives.
  bool util_random_exempts = false;
};

constexpr BannedToken kBanned[] = {
    {"std::rand", "libc PRNG with hidden global state", false, false, false},
    {"srand(", "seeds the hidden libc PRNG", false, false, false},
    {"rand(", "libc PRNG with hidden global state", false, false, false},
    {"random_device", "nondeterministic hardware entropy", false, false,
     false},
    {"std::shuffle", "ordering draw outside the seeded Rng", false, true,
     false},
    {"std::sample", "sampling draw outside the seeded Rng", false, true,
     false},
    {"lgamma", "glibc writes the process-global signgam (TSan race)", false,
     false, false},
    {"lgammaf", "glibc writes the process-global signgam (TSan race)", false,
     false, false},
    {"lgamma_r", "glibc lgamma family is banned for portability", false,
     false, false},
    {"signgam", "process-global written by glibc lgamma", false, false,
     false},
    {"mt19937", "raw std engine outside util/random", false, false, true},
    {"default_random_engine", "raw std engine outside util/random", false,
     false, true},
    {"steady_clock", "wall-clock read outside a timing column", true, false,
     false},
    {"system_clock", "wall-clock read outside a timing column", true, false,
     false},
    {"high_resolution_clock", "wall-clock read outside a timing column", true,
     false, false},
    {"time(", "libc wall-clock read", true, false, false},
    {"clock(", "libc CPU-clock read", true, false, false},
    {"gettimeofday", "libc wall-clock read", true, false, false},
    {"localtime", "wall-clock + timezone read", true, false, false},
    {"gmtime", "wall-clock read", true, false, false},
};

}  // namespace

void CheckNondeterminismSources(const SourceFile& file,
                                std::vector<Finding>* out) {
  // The timing-column whitelist: sim/experiment.cc times RunSingleTrial
  // for the declared secs-per-trial columns, and bench drivers time by
  // definition.  util/random is the one home of raw std engines.
  const bool clock_whitelisted = file.path == "src/sim/experiment.cc" ||
                                 StartsWith(file.path, "bench/");
  const bool is_util_random = StartsWith(file.path, "src/util/random.");

  for (size_t i = 0; i < file.code_lines.size(); ++i) {
    // Matched spans are blanked in a scratch copy so overlapping
    // tokens ("std::rand" then "rand(") report once.
    std::string line = file.code_lines[i];
    for (const BannedToken& banned : kBanned) {
      if (banned.is_clock && clock_whitelisted) continue;
      if (banned.util_random_exempts && is_util_random) continue;
      for (size_t pos = FindToken(line, banned.token); pos != std::string::npos;
           pos = FindToken(line, banned.token, pos)) {
        const size_t len = std::string(banned.token).size();
        if (banned.rng_arg_exempts &&
            FindToken(line, "Rng") != std::string::npos) {
          pos += len;
          continue;
        }
        out->push_back(Finding{
            file.path, i + 1, "R1",
            std::string("banned nondeterminism source '") + banned.token +
                "': " + banned.why +
                " — route randomness through util/random Rng or add "
                "`// lint: nondet-ok(<reason>)`"});
        for (size_t k = pos; k < pos + len && k < line.size(); ++k) {
          line[k] = ' ';
        }
      }
    }
  }
}

}  // namespace lint
}  // namespace ldpr
