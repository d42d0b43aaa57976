// ResultSink: the one output interface every scenario (and
// `ldpr run`) writes results through.  A sink consumes the same
// row stream the paper-style console tables render — BeginTable /
// AddRow / AddSeparator / EndTable — so the console view and the
// JSONL file of one run are two serializations of identical rows.
//
// Error model: writes are buffered/streamed without per-call error
// returns; Finish() flushes and reports the first I/O failure
// (including partial writes detected via ferror/fclose).  Callers
// must check Finish() — a sink that never Finish()es cleanly must be
// treated as having produced garbage.
//
// Determinism: JSONL renders doubles with the shortest round-trip
// representation (util/json_writer.h), so byte-identical metric
// vectors produce byte-identical files — the property the scenario
// determinism ctest entries diff across thread counts.

#ifndef LDPR_RUNNER_RESULT_SINK_H_
#define LDPR_RUNNER_RESULT_SINK_H_

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "util/status.h"
#include "util/table.h"

namespace ldpr {

/// Run metadata a sink may surface (the console banner) or attach to
/// rows (the scenario id column).
struct ScenarioRunInfo {
  std::string id;
  std::string title;
  uint64_t seed = 0;
  double scale = 0;
  size_t trials = 0;
  size_t threads = 0;
  struct DatasetInfo {
    std::string display;
    size_t domain_size = 0;
    uint64_t num_users = 0;
  };
  std::vector<DatasetInfo> datasets;
};

class ResultSink {
 public:
  virtual ~ResultSink() = default;

  /// Announces the run this sink will receive rows for.  Optional;
  /// sinks default to an anonymous scenario.
  virtual void BeginScenario(const ScenarioRunInfo& info);

  /// Opens a table; every AddRow until EndTable belongs to it.
  virtual void BeginTable(const std::string& title,
                          const std::vector<std::string>& columns) = 0;

  /// Emits one row; values.size() must equal the open table's column
  /// count.
  virtual void AddRow(const std::string& label,
                      const std::vector<double>& values) = 0;

  /// Visual group separator (console only; data sinks ignore it).
  virtual void AddSeparator() {}

  virtual void EndTable() {}

  /// Flushes and reports the first write failure.  Idempotent.
  virtual Status Finish() = 0;

 protected:
  ScenarioRunInfo info_;
};

/// Renders tables to stdout via TablePrinter, prefixed by the
/// scenario banner — the view the old bench_* binaries printed.
class ConsoleSink : public ResultSink {
 public:
  void BeginScenario(const ScenarioRunInfo& info) override;
  void BeginTable(const std::string& title,
                  const std::vector<std::string>& columns) override;
  void AddRow(const std::string& label,
              const std::vector<double>& values) override;
  void AddSeparator() override;
  void EndTable() override;
  Status Finish() override;

 private:
  std::unique_ptr<TablePrinter> table_;
};

/// Streams one JSON object per row:
/// {"scenario":...,"table":...,"row":...,"values":{col:val,...}}
class JsonlSink : public ResultSink {
 public:
  explicit JsonlSink(const std::string& path);
  ~JsonlSink() override;

  JsonlSink(const JsonlSink&) = delete;
  JsonlSink& operator=(const JsonlSink&) = delete;

  bool ok() const { return file_ != nullptr && !write_error_; }

  void BeginTable(const std::string& title,
                  const std::vector<std::string>& columns) override;
  void AddRow(const std::string& label,
              const std::vector<double>& values) override;
  Status Finish() override;

 private:
  std::string path_;
  std::FILE* file_;
  bool write_error_ = false;
  bool finished_ = false;
  Status finish_result_;
  std::string table_;
  std::vector<std::string> columns_;
};

/// Fans every call out to a set of owned child sinks; Finish()
/// returns the first child error.
class MultiSink : public ResultSink {
 public:
  explicit MultiSink(std::vector<std::unique_ptr<ResultSink>> sinks);

  void BeginScenario(const ScenarioRunInfo& info) override;
  void BeginTable(const std::string& title,
                  const std::vector<std::string>& columns) override;
  void AddRow(const std::string& label,
              const std::vector<double>& values) override;
  void AddSeparator() override;
  void EndTable() override;
  Status Finish() override;

 private:
  std::vector<std::unique_ptr<ResultSink>> sinks_;
};

}  // namespace ldpr

#endif  // LDPR_RUNNER_RESULT_SINK_H_
