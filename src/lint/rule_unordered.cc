// R2 — no iteration over std::unordered_map/unordered_set in src/.
//
// Hash-table iteration order is unspecified and varies across
// libstdc++ versions, so letting it reach a sink, a table row, or a
// support-count merge silently breaks the exact `ldpr diff`.  Keyed
// access (find/emplace/at/operator[]/count) is deterministic and
// stays allowed; what this rule flags is *walking* the container:
// range-for over it, explicit begin()/end(), or std::begin/std::end.
//
// Detection is declaration-driven: collect every identifier declared
// in this file (and its paired header) with an unordered type, then
// flag iteration syntax over those names.

#include <string>
#include <vector>

#include "lint/lint.h"

namespace ldpr {
namespace lint {
namespace {

/// Collects identifiers declared as unordered_map/unordered_set on a
/// single line: `std::unordered_map<K, V> name` (references, pointers
/// and members included; multi-line template args are rare enough to
/// skip).
void CollectUnorderedNames(const SourceFile& file,
                           std::vector<std::string>* names) {
  for (const std::string& line : file.code_lines) {
    for (const char* type : {"unordered_map", "unordered_set"}) {
      size_t pos = FindToken(line, type);
      if (pos == std::string::npos) continue;
      pos += std::string(type).size();
      // Balance the template argument list.
      if (pos >= line.size() || line[pos] != '<') continue;
      int depth = 0;
      while (pos < line.size()) {
        if (line[pos] == '<') ++depth;
        if (line[pos] == '>') {
          --depth;
          if (depth == 0) {
            ++pos;
            break;
          }
        }
        ++pos;
      }
      if (depth != 0) continue;  // args continue on the next line
      while (pos < line.size() &&
             (line[pos] == ' ' || line[pos] == '&' || line[pos] == '*')) {
        ++pos;
      }
      const size_t name_start = pos;
      while (pos < line.size() && IsIdentChar(line[pos])) ++pos;
      if (pos > name_start) {
        names->push_back(line.substr(name_start, pos - name_start));
      }
    }
  }
}

}  // namespace

void CheckUnorderedIteration(const SourceFile& file,
                             std::vector<Finding>* out) {
  std::vector<std::string> names;
  CollectUnorderedNames(file, &names);
  if (names.empty()) return;

  for (size_t i = 0; i < file.code_lines.size(); ++i) {
    const std::string& line = file.code_lines[i];
    for (const std::string& name : names) {
      bool hit = false;
      // Range-for: `for (... : name)` — a token-bounded name directly
      // after a ':' (skipping spaces) inside a line containing `for`.
      for (size_t pos = FindToken(line, name); pos != std::string::npos;
           pos = FindToken(line, name, pos + 1)) {
        size_t before = pos;
        while (before > 0 && line[before - 1] == ' ') --before;
        if (before > 0 && line[before - 1] == ':' &&
            (before < 2 || line[before - 2] != ':') &&
            FindToken(line, "for") != std::string::npos) {
          hit = true;
        }
      }
      // Iterator walk: name.begin()/end()/cbegin()/... or
      // std::begin(name)/std::end(name).
      for (const char* method :
           {".begin(", ".end(", ".cbegin(", ".cend(", ".rbegin(", ".rend("}) {
        if (FindToken(line, name + method) != std::string::npos) hit = true;
      }
      for (const char* fn : {"begin(", "end(", "cbegin(", "cend("}) {
        if (FindToken(line, std::string(fn) + name + ")") !=
            std::string::npos) {
          hit = true;
        }
      }
      if (hit) {
        out->push_back(Finding{
            file.path, i + 1, "R2",
            "iteration over unordered container '" + name +
                "': hash order must never feed output or merges — use a "
                "sorted container/key order, or add "
                "`// lint: unordered-iter-ok(<reason>)`"});
      }
    }
  }
}

}  // namespace lint
}  // namespace ldpr
