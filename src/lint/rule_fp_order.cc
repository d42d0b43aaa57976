// R3 — floating-point accumulation order in the hot directories.
//
// Support counts stay bit-identical across shard counts only because
// every merged sum is exact (integer-valued doubles below 2^53 —
// docs/architecture.md).  A new `double acc += ...` in a loop in
// src/ldp/, src/stream/, or src/recover/ is exactly where that
// argument silently stops holding, so each one must either live in a
// file on the exact-sum allowlist (an `R3 <file> ...` entry in
// ci/lint_allowlist.txt, asserting every fp accumulation there is an
// exact sum) or carry `// lint: fp-order-ok(<reason>)` explaining why
// regrouping is safe (e.g. a serial fixed-order loop).
//
// "Floating-point" is decided from evidence the scanner can see: the
// accumulation target is declared float/double in this file or its
// paired header, or the right-hand side contains an fp literal or an
// explicit cast to float/double.

#include <string>
#include <vector>

#include "lint/lint.h"

namespace ldpr {
namespace lint {
namespace {

/// Collects identifiers declared with a float/double-ish type on one
/// line: `double x`, `float x`, `std::vector<double>& xs`,
/// `std::array<float, 4> xs`, `double* x`.
void CollectFpNames(const SourceFile& file, std::vector<std::string>* names) {
  for (const std::string& line : file.code_lines) {
    for (const char* type : {"double", "float"}) {
      for (size_t pos = FindToken(line, type); pos != std::string::npos;
           pos = FindToken(line, type, pos + 1)) {
        size_t after = pos + std::string(type).size();
        // Skip to the declared name through template closers,
        // ref/pointer sigils, and an optional container size arg.
        while (after < line.size() &&
               (line[after] == ' ' || line[after] == '>' ||
                line[after] == '&' || line[after] == '*' ||
                line[after] == ',' || IsIdentChar(line[after]))) {
          // `double foo` — capture foo; `vector<double, Alloc>` keeps
          // scanning past the alloc to the closer.
          if (IsIdentChar(line[after])) {
            const size_t name_start = after;
            while (after < line.size() && IsIdentChar(line[after])) ++after;
            // A name directly followed by '(' is a function/cast, not
            // a variable; "const"/type keywords are skipped.
            const std::string name = line.substr(name_start, after - name_start);
            if (name == "const" || name == "static" || name == "constexpr") {
              continue;
            }
            if (after < line.size() && line[after] == '(') break;
            // Single-letter names (helper parameters like `a`, `b`)
            // are too collision-prone for a scope-blind name table.
            if (name.size() > 1) names->push_back(name);
            break;
          }
          ++after;
        }
      }
    }
  }
}

bool Contains(const std::vector<std::string>& names, const std::string& name) {
  for (const std::string& candidate : names) {
    if (candidate == name) return true;
  }
  return false;
}

/// True when `expr` shows floating-point evidence: a `1.0`-style
/// literal, an fp cast, or a name from `fp_names`.
bool LooksFloating(const std::string& expr,
                   const std::vector<std::string>& fp_names) {
  // `1.0`-style literal: digit '.' digit with no identifier leading in.
  for (size_t i = 1; i + 1 < expr.size(); ++i) {
    const bool digits_around = expr[i] == '.' && expr[i - 1] >= '0' &&
                               expr[i - 1] <= '9' && expr[i + 1] >= '0' &&
                               expr[i + 1] <= '9';
    if (!digits_around) continue;
    size_t start = i - 1;
    while (start > 0 && (expr[start - 1] >= '0' && expr[start - 1] <= '9')) {
      --start;
    }
    if (start == 0 || !IsIdentChar(expr[start - 1])) return true;
  }
  if (FindToken(expr, "static_cast<double>") != std::string::npos) return true;
  if (FindToken(expr, "static_cast<float>") != std::string::npos) return true;
  if (FindToken(expr, "double(") != std::string::npos) return true;
  for (const std::string& name : fp_names) {
    if (FindToken(expr, name) != std::string::npos) return true;
  }
  return false;
}

/// Marks, per line, whether it sits inside a for/while loop body —
/// brace-depth tracking plus the single-statement forms (`for (...)
/// stmt;` on the same or next line).
std::vector<bool> ComputeInLoop(const std::vector<std::string>& code_lines) {
  std::vector<bool> in_loop(code_lines.size(), false);
  std::vector<int> loop_stack;  // brace depths whose scope is a loop body
  int depth = 0;
  int pending_loop_parens = 0;   // inside `for (...)` / `while (...)` header
  bool expect_loop_body = false;  // header closed; next { or stmt is the body
  for (size_t i = 0; i < code_lines.size(); ++i) {
    const std::string& line = code_lines[i];
    if (!loop_stack.empty() || expect_loop_body) in_loop[i] = true;
    for (size_t j = 0; j < line.size(); ++j) {
      const char c = line[j];
      if (pending_loop_parens > 0) {
        if (c == '(') ++pending_loop_parens;
        if (c == ')') {
          --pending_loop_parens;
          if (pending_loop_parens == 1) {  // header's own paren closed
            pending_loop_parens = 0;
            expect_loop_body = true;
            // Anything after the header on this line is loop body.
            in_loop[i] = true;
          }
        }
        continue;
      }
      if (c == '{') {
        ++depth;
        if (expect_loop_body) {
          loop_stack.push_back(depth);
          expect_loop_body = false;
        }
      } else if (c == '}') {
        if (!loop_stack.empty() && loop_stack.back() == depth) {
          loop_stack.pop_back();
        }
        --depth;
      } else if (c == ';' && expect_loop_body) {
        expect_loop_body = false;  // single-statement body ended
      } else if ((c == 'f' || c == 'w') && IsIdentChar(c)) {
        if ((FindToken(line, "for", j) == j || FindToken(line, "while", j) == j)) {
          // Start of a loop header: wait for its parens.
          pending_loop_parens = 1;
          size_t k = j + (line[j] == 'f' ? 3 : 5);
          while (k < line.size() && line[k] == ' ') ++k;
          if (k < line.size() && line[k] == '(') {
            j = k;  // the '(' increments to 2, closing back to 1 ends it
            ++pending_loop_parens;
          } else {
            pending_loop_parens = 0;  // `for` token without '(': not a loop
          }
        }
      }
    }
    if (expect_loop_body && i + 1 < code_lines.size()) {
      // Single-statement body continuing on the next line.
      in_loop[i + 1] = true;
    }
  }
  return in_loop;
}

}  // namespace

void CheckFpAccumulationOrder(const LintTree& tree, const SourceFile& file,
                              std::vector<Finding>* out) {
  if (!EndsWith(file.path, ".cc")) return;

  std::vector<std::string> fp_names;
  CollectFpNames(file, &fp_names);
  // Members are declared in the paired header (foo.cc -> foo.h).
  std::string header_path = file.path;
  header_path.replace(header_path.size() - 3, 3, ".h");
  const SourceFile* header = tree.Find(header_path);
  if (header != nullptr) CollectFpNames(*header, &fp_names);

  const std::vector<bool> in_loop = ComputeInLoop(file.code_lines);
  for (size_t i = 0; i < file.code_lines.size(); ++i) {
    if (!in_loop[i]) continue;
    const std::string& line = file.code_lines[i];
    for (const char* op : {"+=", "-="}) {
      for (size_t pos = line.find(op); pos != std::string::npos;
           pos = line.find(op, pos + 2)) {
        // Target: the identifier (with optional [index]/.member chain)
        // ending just before the operator.
        size_t end = pos;
        while (end > 0 && line[end - 1] == ' ') --end;
        size_t start = end;
        int brackets = 0;
        while (start > 0) {
          const char c = line[start - 1];
          if (c == ']') ++brackets;
          if (c == '[') --brackets;
          if (brackets > 0 || IsIdentChar(c) || c == ']' || c == '[' ||
              c == '.' || c == '_') {
            --start;
          } else {
            break;
          }
        }
        const std::string target = line.substr(start, end - start);
        std::string base = target;
        const size_t bracket = base.find('[');
        if (bracket != std::string::npos) base.resize(bracket);
        const size_t dot = base.rfind('.');
        if (dot != std::string::npos) base = base.substr(dot + 1);
        const std::string rhs = line.substr(pos + 2);
        if (!Contains(fp_names, base) && !LooksFloating(rhs, fp_names)) {
          continue;
        }
        out->push_back(Finding{
            file.path, i + 1, "R3",
            "floating-point accumulation '" + target + " " + op +
                " ...' inside a loop: regrouping across shards changes "
                "bits unless the sum is exact — add this file to the R3 "
                "exact-sum allowlist or `// lint: fp-order-ok(<reason>)`"});
      }
    }
  }
}

}  // namespace lint
}  // namespace ldpr
