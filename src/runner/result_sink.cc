#include "runner/result_sink.h"

#include "util/json_writer.h"
#include "util/logging.h"

namespace ldpr {

void ResultSink::BeginScenario(const ScenarioRunInfo& info) { info_ = info; }

// ----------------------------------------------------------- console

void ConsoleSink::BeginScenario(const ScenarioRunInfo& info) {
  ResultSink::BeginScenario(info);
  std::printf("%s\n", info.title.c_str());
  std::printf("scenario=%s seed=%llu scale=%.3g trials=%zu\n",
              info.id.c_str(), static_cast<unsigned long long>(info.seed),
              info.scale, info.trials);
  // Kept on its own line: the determinism harness strips lines
  // mentioning the thread count before diffing runs.
  std::printf("threads=%zu (LDPR_THREADS)\n", info.threads);
  for (size_t i = 0; i < info.datasets.size(); ++i) {
    const auto& ds = info.datasets[i];
    std::printf("%s%s: d=%zu n=%llu", i == 0 ? "" : " | ",
                ds.display.c_str(), ds.domain_size,
                static_cast<unsigned long long>(ds.num_users));
  }
  if (!info.datasets.empty()) std::printf("\n");
  std::printf("\n");
}

void ConsoleSink::BeginTable(const std::string& title,
                             const std::vector<std::string>& columns) {
  LDPR_CHECK(table_ == nullptr);
  table_ = std::make_unique<TablePrinter>(title, columns);
}

void ConsoleSink::AddRow(const std::string& label,
                         const std::vector<double>& values) {
  LDPR_CHECK(table_ != nullptr);
  table_->AddRow(label, values);
}

void ConsoleSink::AddSeparator() {
  LDPR_CHECK(table_ != nullptr);
  table_->AddSeparator();
}

void ConsoleSink::EndTable() {
  LDPR_CHECK(table_ != nullptr);
  table_->Print();
  table_.reset();
}

Status ConsoleSink::Finish() {
  LDPR_CHECK(table_ == nullptr);  // every table was closed
  return Status::Ok();
}

// ------------------------------------------------------------- jsonl

JsonlSink::JsonlSink(const std::string& path)
    : path_(path), file_(std::fopen(path.c_str(), "w")) {}

JsonlSink::~JsonlSink() {
  if (file_ != nullptr) std::fclose(file_);
}

void JsonlSink::BeginTable(const std::string& title,
                           const std::vector<std::string>& columns) {
  table_ = title;
  columns_ = columns;
}

void JsonlSink::AddRow(const std::string& label,
                       const std::vector<double>& values) {
  LDPR_CHECK(values.size() == columns_.size());
  if (file_ == nullptr) return;
  JsonWriter w;
  w.BeginObject();
  w.Key("scenario");
  w.String(info_.id);
  w.Key("table");
  w.String(table_);
  w.Key("row");
  w.String(label);
  w.Key("values");
  w.BeginObject();
  for (size_t i = 0; i < values.size(); ++i) {
    w.Key(columns_[i]);
    w.Number(values[i]);
  }
  w.EndObject();
  w.EndObject();
  const std::string line = w.str() + "\n";
  if (std::fwrite(line.data(), 1, line.size(), file_) != line.size())
    write_error_ = true;
}

Status JsonlSink::Finish() {
  if (finished_) return finish_result_;  // latched: repeats don't mask errors
  finished_ = true;
  if (file_ == nullptr) {
    finish_result_ = InternalError("cannot open for writing: " + path_);
    return finish_result_;
  }
  const bool flush_failed = std::fflush(file_) != 0 || std::ferror(file_) != 0;
  const bool close_failed = std::fclose(file_) != 0;
  file_ = nullptr;
  if (write_error_ || flush_failed || close_failed)
    finish_result_ = InternalError("partial JSONL write: " + path_);
  return finish_result_;
}

// ------------------------------------------------------------- multi

MultiSink::MultiSink(std::vector<std::unique_ptr<ResultSink>> sinks)
    : sinks_(std::move(sinks)) {
  for (const auto& sink : sinks_) LDPR_CHECK(sink != nullptr);
}

void MultiSink::BeginScenario(const ScenarioRunInfo& info) {
  ResultSink::BeginScenario(info);
  for (auto& sink : sinks_) sink->BeginScenario(info);
}

void MultiSink::BeginTable(const std::string& title,
                           const std::vector<std::string>& columns) {
  for (auto& sink : sinks_) sink->BeginTable(title, columns);
}

void MultiSink::AddRow(const std::string& label,
                       const std::vector<double>& values) {
  for (auto& sink : sinks_) sink->AddRow(label, values);
}

void MultiSink::AddSeparator() {
  for (auto& sink : sinks_) sink->AddSeparator();
}

void MultiSink::EndTable() {
  for (auto& sink : sinks_) sink->EndTable();
}

Status MultiSink::Finish() {
  Status first = Status::Ok();
  for (auto& sink : sinks_) {
    Status status = sink->Finish();
    if (!status.ok() && first.ok()) first = status;
  }
  return first;
}

}  // namespace ldpr
