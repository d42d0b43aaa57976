// The `ldpr` subcommand CLI: one binary fronting every interactive
// entry point of the library behind a shared flag layer.
//
//   ldpr run     batch poisoning + recovery pipeline
//   ldpr stream  windowed streaming ingest replay
//   ldpr bench   registered scenarios (paper figures and tables)
//   ldpr diff    compare two result trees
//   ldpr list    subcommands and registered scenarios
//
// One path per job: the trial flags parse in ParseTrialFlags, named
// datasets resolve through the runner's table (ResolveBenchDataset),
// errors and unknown flags exit through ExitStatus, every `--out DIR`
// of run/stream is a result tree (ResultOutput), and bench writes one
// tree for all its scenarios.
//
// Exit codes: 0 success, 1 any error (bad flags, I/O).
// `ldpr diff` keeps a comparator's ladder instead: 0 agree,
// 1 violations, 2 usage or load error.

#ifndef LDPR_CLI_CLI_H_
#define LDPR_CLI_CLI_H_

#include <cstdint>
#include <cstdio>
#include <initializer_list>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "data/dataset.h"
#include "ldp/protocol.h"
#include "runner/manifest.h"
#include "runner/registry.h"
#include "runner/result_sink.h"
#include "sim/pipeline.h"
#include "util/flags.h"
#include "util/status.h"

namespace ldpr {
namespace cli {

/// The largest --epsilon any command accepts.  OLH's hash range
/// g = ceil(e^eps + 1) grows with e^eps, and MGA's seed search against
/// OLH touches all g buckets per crafted report, so a trial stays
/// cheap only while g does: at the cap g = 2,982, and one paper-scale
/// IPUMS OLH/MGA trial takes well under a second on 4 x86-64 cores.
/// The paper's evaluation tops out at eps = 1.6.
inline constexpr double kMaxEpsilon = 8.0;

/// The largest --d, or --csv distinct items, any command accepts.  A
/// unary-encoding trial holds d-bit reports, so memory grows with d: at
/// the cap one OUE/MGA trial on the default 100,000 users peaks near
/// 0.5 GB (ten times the cap needs 5 GB).  The paper's domains are 102
/// and 490; scaling_d stops at 4,096.
inline constexpr int64_t kMaxDomainSize = 100000;

/// The largest --n, or scaled --csv users, any command accepts.
/// Attacks materialize their beta*n/(1-beta) malicious reports, so
/// memory grows with n: at the cap one OUE/MGA trial peaks near 0.6 GB,
/// and ten times the cap no longer fits a 6 GB address space.  The
/// paper's populations are 389,894 and 667,574; scaling_n stops at
/// 1,000,000.  The caps bound each axis alone; `ldpr run` bounds the
/// joint cost (d, n and --beta together) through
/// ValidateExperimentInputs' kMaxCraftedReportBytes, and `ldpr stream`
/// a unary stream's n·d through ValidateStream's kMaxStreamUnaryBits.
inline constexpr int64_t kMaxUsers = 100000000;

/// InvalidArgument("--<flag> must be in [lo, hi]") unless `value` is.
Status RequireInRange(const char* flag, int64_t value, int64_t lo, int64_t hi);

/// The trial the shared flags describe; every command reads it
/// through ParseTrialFlags, so a flag means the same thing everywhere.
struct TrialFlags {
  ProtocolKind protocol = ProtocolKind::kGrr;
  AttackKind attack = AttackKind::kNone;
  std::string dataset;  // a ResolveBenchDataset generator name
  std::string csv;      // --csv FILE: load the population instead
  size_t d = 0;         // --d/--n shape overrides; 0 = generator default
  uint64_t n = 0;
  double scale = 1.0;
  double epsilon = 0.5;
  double beta = 0.05;
  double eta = 0.2;
  uint64_t targets = 10;
  uint64_t seed = 1;
};

/// Reads the trial flags with the command's defaults; an empty
/// `default_attack` leaves --attack unread (an unknown flag).  --d
/// outside [2, kMaxDomainSize], --n outside [1, kMaxUsers], --scale
/// outside (0, 1], --epsilon outside (0, kMaxEpsilon] (NaN included)
/// and --csv with --dataset/--d/--n are errors.
StatusOr<TrialFlags> ParseTrialFlags(const FlagParser& flags,
                                     const std::string& default_dataset,
                                     const std::string& default_attack);

/// The --csv file or the named generator (ResolveBenchDataset, which
/// rejects --d/--n on a fixed-shape dataset), scaled by --scale.  A
/// --csv population past kMaxDomainSize or kMaxUsers is an error.
StatusOr<Dataset> ResolveTrialDataset(const TrialFlags& trial);

/// InvalidArgument(`message`) unless `condition` holds.
Status Require(bool condition, const std::string& message);

/// The one failure path of every command but `diff`: prints the first
/// non-OK status, or else the first flag the command never read, as
/// `error: ...` on stderr and returns 1; returns 0 when there is none.
int ExitStatus(const FlagParser& flags, std::initializer_list<Status> statuses);

/// One row of a command's result table.
using TableRow = std::pair<std::string, std::vector<double>>;

/// A command's one result table: on the console under the standard
/// scenario banner (when `console`), and with a non-empty `out_dir`
/// as the one-scenario result tree of `spec` (runner/manifest.h),
/// an "extension" artifact.
class ResultOutput {
 public:
  ResultOutput(ScenarioSpec spec, std::string out_dir, bool console = true);

  /// Prints the banner of `run.info` plus `dataset` and opens the
  /// result files, so an unwritable --out fails before the work starts.
  Status Open(const ScenarioRunReport& run, const Dataset& dataset);

  void WriteTable(const std::string& title, const std::vector<TableRow>& rows);

  /// Flushes every sink and writes both manifests.
  Status Finish();

 private:
  ScenarioSpec spec_;
  std::string out_dir_;
  bool console_;
  ScenarioRunReport report_;
  ResultTreeWriter tree_;
  std::unique_ptr<MultiSink> sink_;
};

/// Subcommand entry points; each consumes the flags *after* the
/// subcommand word and returns the process exit code.
int RunCommand(const FlagParser& flags);
int StreamCommand(const FlagParser& flags);
int BenchCommand(const FlagParser& flags);
int DiffCommand(const FlagParser& flags);
int ListCommand(const FlagParser& flags);

void PrintUsage(std::FILE* out);

/// Full dispatch: argv[1] selects the subcommand, the rest parses
/// through one FlagParser handed to the subcommand.
int Main(int argc, char** argv);

}  // namespace cli
}  // namespace ldpr

#endif  // LDPR_CLI_CLI_H_
