// Result trees: the one on-disk layout every `ldpr` command's
// `--out DIR` writes (`bench`, `run`, `stream`), and the one writer
// they use.
//
//   <root>/manifest.json         tree manifest: every scenario of the
//                                run with its knobs and files
//   <root>/<id>/results.jsonl    the scenario's rows (JsonlSink)
//   <root>/<id>/manifest.json    run manifest: scenario id, seed,
//                                scale, trials, thread budget and its
//                                split, SIMD backend, git version,
//                                resolved dataset sizes, columns
//
// The run manifest deliberately carries the *machine-dependent* facts
// (threads, split, simd) so they stay out of the result files, which
// must diff clean across thread counts.  LoadResultTree
// (runner/result_diff.h) reads the tree back for `ldpr diff`.

#ifndef LDPR_RUNNER_MANIFEST_H_
#define LDPR_RUNNER_MANIFEST_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "runner/registry.h"
#include "runner/result_sink.h"
#include "util/status.h"

namespace ldpr {

/// The version stamp compiled into the binary (CMake runs
/// `git describe --always --dirty` at configure time; "unknown" when
/// built outside a git checkout).
std::string GitDescribe();

/// Writes one result tree, scenario by scenario:
///
///   ResultTreeWriter tree(root);
///   tree.OpenScenario(id, sinks);        // then run into the sinks
///   ... sinks Finish() cleanly ...
///   tree.CloseScenario(spec, report);    // <root>/<id>/manifest.json
///   tree.Finish();                       // <root>/manifest.json
class ResultTreeWriter {
 public:
  explicit ResultTreeWriter(std::string root) : root_(std::move(root)) {}

  /// Creates <root>/<id>/ and appends a sink for its results.jsonl to
  /// `sinks`.  Fails, before touching any file, when this tree already
  /// opened `id` (a second run would truncate the first's results and
  /// list the id twice); fails when the directory or the file cannot
  /// be opened.
  Status OpenScenario(const std::string& id,
                      std::vector<std::unique_ptr<ResultSink>>& sinks);

  /// Writes the run manifest of `spec`'s completed run (report.info
  /// holds the knobs and dataset sizes the sinks saw) and records the
  /// scenario for the tree manifest.
  Status CloseScenario(const ScenarioSpec& spec,
                       const ScenarioRunReport& report);

  /// Writes the tree manifest listing every closed scenario.
  Status Finish();

  size_t scenarios() const { return closed_.size(); }

 private:
  std::string root_;
  std::vector<std::string> opened_;
  std::vector<ScenarioRunInfo> closed_;  // info.id is the spec id
};

}  // namespace ldpr

#endif  // LDPR_RUNNER_MANIFEST_H_
