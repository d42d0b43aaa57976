// The `ldpr` subcommand CLI: one binary fronting every interactive
// entry point of the library behind a shared flag layer.
//
//   ldpr run           batch poisoning + recovery pipeline
//   ldpr stream        windowed streaming ingest replay
//   ldpr shard-worker  compute one worker's partial support counts
//   ldpr shard-merge   merge worker partials into a result tree
//   ldpr diff          compare two result trees
//   ldpr list          subcommands and registered scenarios
//
// Shared flags (--protocol/--attack/--dataset/--epsilon/--beta/
// --eta/--targets/--seed/--scale/...) parse identically across
// subcommands; each subcommand validates the subset it uses and
// rejects unknown flags via FlagParser::unused_flags().
//
// Exit codes: 0 success, 1 any error (bad flags, I/O, failed merge).
// `ldpr diff` keeps a comparator's ladder instead: 0 agree,
// 1 violations, 2 usage or load error.

#ifndef LDPR_CLI_CLI_H_
#define LDPR_CLI_CLI_H_

#include <cstdio>
#include <memory>
#include <string>

#include "data/dataset.h"
#include "runner/result_sink.h"
#include "util/flags.h"
#include "util/status.h"

namespace ldpr {
namespace cli {

/// Dataset selection shared by `run` and `stream`: --csv FILE, or
/// --dataset (ipums|fire|zipf|uniform) with --d/--n/--zipf_s shape
/// knobs for the synthetic generators.
StatusOr<Dataset> ParseDatasetFlags(const FlagParser& flags);

/// The console-plus-optional-file sink `run` and `stream` write
/// through: always a ConsoleSink, plus a CsvSink (or JsonlSink when
/// `out_path` ends in .jsonl) when `out_path` is non-empty.  The
/// scenario banner carries `scenario_id`.  Errors when the file
/// cannot be opened — callers fail fast before any expensive run.
StatusOr<std::unique_ptr<ResultSink>> MakeRunSink(
    const std::string& out_path, const std::string& scenario_id);

/// Subcommand entry points; each consumes the flags *after* the
/// subcommand word and returns the process exit code.
int RunCommand(const FlagParser& flags);
int StreamCommand(const FlagParser& flags);
int ShardWorkerCommand(const FlagParser& flags);
int ShardMergeCommand(const FlagParser& flags);
int DiffCommand(const FlagParser& flags);
int ListCommand(const FlagParser& flags);

void PrintUsage(std::FILE* out);

/// Full dispatch: argv[1] selects the subcommand, the rest parses
/// through one FlagParser handed to the subcommand.
int Main(int argc, char** argv);

}  // namespace cli
}  // namespace ldpr

#endif  // LDPR_CLI_CLI_H_
