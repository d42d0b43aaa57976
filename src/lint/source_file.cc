#include "lint/source_file.h"

#include <fstream>
#include <sstream>

namespace ldpr {
namespace lint {

bool IsIdentChar(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '_';
}

size_t FindToken(const std::string& line, const std::string& token,
                 size_t from) {
  if (token.empty()) return std::string::npos;
  for (size_t pos = line.find(token, from); pos != std::string::npos;
       pos = line.find(token, pos + 1)) {
    const bool left_ok =
        !IsIdentChar(token.front()) || pos == 0 || !IsIdentChar(line[pos - 1]);
    const size_t end = pos + token.size();
    const bool right_ok = !IsIdentChar(token.back()) || end >= line.size() ||
                          !IsIdentChar(line[end]);
    if (left_ok && right_ok) return pos;
  }
  return std::string::npos;
}

bool StartsWith(const std::string& s, const std::string& affix) {
  return s.compare(0, affix.size(), affix) == 0;
}

bool EndsWith(const std::string& s, const std::string& affix) {
  return s.size() >= affix.size() &&
         s.compare(s.size() - affix.size(), affix.size(), affix) == 0;
}

bool SourceFile::SuppressedAt(size_t line, const std::string& key) const {
  for (const LintPragma& pragma : pragmas) {
    if (pragma.key != key || pragma.reason.empty()) continue;
    if (pragma.line == line) return true;
    // Standalone pragma on the line above: its own line has no code.
    if (pragma.line + 1 == line && pragma.line <= code_lines.size()) {
      const std::string& code = code_lines[pragma.line - 1];
      if (code.find_first_not_of(" \t") == std::string::npos) return true;
    }
  }
  return false;
}

namespace {

/// Parses `lint: <key>-ok(<reason>)` out of one comment's text.
void ExtractPragma(const std::string& comment, size_t line,
                   std::vector<LintPragma>* pragmas) {
  const size_t tag = comment.find("lint:");
  if (tag == std::string::npos) return;
  size_t pos = tag + 5;
  while (pos < comment.size() && comment[pos] == ' ') ++pos;
  const size_t key_start = pos;
  while (pos < comment.size() &&
         (IsIdentChar(comment[pos]) || comment[pos] == '-')) {
    ++pos;
  }
  std::string key = comment.substr(key_start, pos - key_start);
  const std::string suffix = "-ok";
  if (key.size() <= suffix.size() ||
      key.compare(key.size() - suffix.size(), suffix.size(), suffix) != 0) {
    return;
  }
  key.resize(key.size() - suffix.size());
  if (pos >= comment.size() || comment[pos] != '(') return;
  const size_t close = comment.find(')', pos + 1);
  if (close == std::string::npos) return;
  std::string reason = comment.substr(pos + 1, close - pos - 1);
  if (reason.find_first_not_of(" \t") == std::string::npos) return;
  pragmas->push_back(LintPragma{line, std::move(key), std::move(reason)});
}

/// The lexical state machine: walks the whole text once, blanking
/// comment and literal bodies, collecting pragmas from comments.
class Scanner {
 public:
  explicit Scanner(const std::string& text) : text_(text) {}

  void Run(SourceFile* out) {
    std::string code = text_;  // blanked in place
    enum class State {
      kCode,
      kLineComment,
      kBlockComment,
      kString,
      kChar,
      kRawString,
    };
    State state = State::kCode;
    std::string raw_delim;      // for kRawString: the `)delim"` closer
    std::string comment_text;   // accumulates the current comment
    size_t comment_line = 1;    // line the current comment started on
    size_t line = 1;
    for (size_t i = 0; i < text_.size(); ++i) {
      const char c = text_[i];
      const char next = i + 1 < text_.size() ? text_[i + 1] : '\0';
      switch (state) {
        case State::kCode:
          if (c == '/' && next == '/') {
            state = State::kLineComment;
            comment_text.clear();
            comment_line = line;
            code[i] = code[i + 1] = ' ';
            ++i;
          } else if (c == '/' && next == '*') {
            state = State::kBlockComment;
            comment_text.clear();
            comment_line = line;
            code[i] = code[i + 1] = ' ';
            ++i;
          } else if (c == '"' &&
                     (i == 0 || text_[i - 1] != 'R')) {
            state = State::kString;
          } else if (c == '"') {  // R"delim( ... )delim"
            state = State::kRawString;
            size_t j = i + 1;
            while (j < text_.size() && text_[j] != '(') ++j;
            raw_delim = ")" + text_.substr(i + 1, j - i - 1) + "\"";
            for (size_t k = i; k < j && k < text_.size(); ++k) code[k] = ' ';
            code[i] = '"';  // keep a quote so the line still "has" a literal
            i = j < text_.size() ? j : text_.size() - 1;
          } else if (c == '\'' &&
                     (i == 0 || !IsIdentChar(text_[i - 1]))) {
            // Identifier-adjacent ' is a digit separator (1'000), not
            // a char literal.
            state = State::kChar;
          }
          break;
        case State::kLineComment:
          if (c == '\n') {
            ExtractPragma(comment_text, comment_line, &out->pragmas);
            state = State::kCode;
          } else {
            comment_text.push_back(c);
            code[i] = ' ';
          }
          break;
        case State::kBlockComment:
          if (c == '*' && next == '/') {
            ExtractPragma(comment_text, comment_line, &out->pragmas);
            state = State::kCode;
            code[i] = code[i + 1] = ' ';
            ++i;
          } else {
            comment_text.push_back(c);
            if (c != '\n') code[i] = ' ';
          }
          break;
        case State::kString:
          if (c == '\\' && next != '\0') {
            code[i] = code[i + 1] = ' ';
            ++i;
          } else if (c == '"') {
            state = State::kCode;
          } else if (c != '\n') {
            code[i] = ' ';
          }
          break;
        case State::kChar:
          if (c == '\\' && next != '\0') {
            code[i] = code[i + 1] = ' ';
            ++i;
          } else if (c == '\'') {
            state = State::kCode;
          } else if (c != '\n') {
            code[i] = ' ';
          }
          break;
        case State::kRawString:
          if (text_.compare(i, raw_delim.size(), raw_delim) == 0) {
            for (size_t k = i; k < i + raw_delim.size(); ++k) code[k] = ' ';
            code[i + raw_delim.size() - 1] = '"';
            i += raw_delim.size() - 1;
            state = State::kCode;
          } else if (c != '\n') {
            code[i] = ' ';
          }
          break;
      }
      if (text_[i] == '\n') ++line;
    }
    if (state == State::kLineComment) {
      ExtractPragma(comment_text, comment_line, &out->pragmas);
    }

    SplitLines(text_, &out->raw_lines);
    SplitLines(code, &out->code_lines);
  }

 private:
  static void SplitLines(const std::string& text,
                         std::vector<std::string>* lines) {
    std::string current;
    for (char c : text) {
      if (c == '\n') {
        lines->push_back(current);
        current.clear();
      } else {
        current.push_back(c);
      }
    }
    if (!current.empty()) lines->push_back(current);
  }

  const std::string& text_;
};

}  // namespace

SourceFile ScanSource(const std::string& repo_path, const std::string& text) {
  SourceFile out;
  out.path = repo_path;
  Scanner(text).Run(&out);
  return out;
}

StatusOr<SourceFile> LoadSourceFile(const std::string& disk_path,
                                    const std::string& repo_path) {
  std::ifstream in(disk_path, std::ios::binary);
  if (!in) return NotFoundError("cannot open " + disk_path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (in.bad()) return InternalError("read failed: " + disk_path);
  return ScanSource(repo_path, buffer.str());
}

}  // namespace lint
}  // namespace ldpr
