#include "lint/lint.h"

#include <algorithm>
#include <filesystem>
#include <tuple>

namespace ldpr {
namespace lint {

namespace fs = std::filesystem;

std::string FormatFinding(const Finding& finding) {
  return finding.path + ":" + std::to_string(finding.line) + ": [" +
         finding.rule + "] " + finding.message;
}

std::string FindingsToGithub(const std::vector<Finding>& findings) {
  std::string out;
  for (const Finding& f : findings) {
    // Workflow-command escaping: %, CR, LF in the message body.
    std::string message = "[" + f.rule + "] " + f.message;
    std::string escaped;
    for (char c : message) {
      if (c == '%') {
        escaped += "%25";
      } else if (c == '\r') {
        escaped += "%0D";
      } else if (c == '\n') {
        escaped += "%0A";
      } else {
        escaped += c;
      }
    }
    out += "::error file=" + f.path + ",line=" + std::to_string(f.line) +
           ",title=ldpr_lint " + f.rule + "::" + escaped + "\n";
  }
  return out;
}

const SourceFile* LintTree::Find(const std::string& path) const {
  for (const SourceFile& file : files) {
    if (file.path == path) return &file;
  }
  return nullptr;
}

std::string PragmaKeyForRule(const std::string& rule) {
  if (rule == "R1") return "nondet";
  if (rule == "R2") return "unordered-iter";
  if (rule == "R3") return "fp-order";
  if (rule == "R5") return "header-guard";
  if (rule == "R6") return "layering";
  if (rule == "R8") return "seed";
  return "";  // R4 and allowlist errors have no pragma escape
}

namespace {

/// Routes one file through every per-file rule whose scope covers it.
void LintOneFile(const LintTree& tree, const SourceFile& file,
                 std::vector<Finding>* findings) {
  const bool in_src = StartsWith(file.path, "src/");
  const bool in_tools = StartsWith(file.path, "tools/");
  const bool in_bench = StartsWith(file.path, "bench/");
  const bool in_examples = StartsWith(file.path, "examples/");
  if (in_src || in_tools || in_bench || in_examples) {
    CheckNondeterminismSources(file, findings);
    // R8 guards runtime code wherever it runs — the examples are
    // runnable code too, and tutorial snippets get copied verbatim.
    // tests/ stay exempt: fixtures pin literal seeds on purpose.
    CheckSeedDiscipline(file, findings);
  }
  if (in_src) {
    CheckUnorderedIteration(file, findings);
    if (EndsWith(file.path, ".h")) CheckHeaderGuard(file, findings);
  }
  if (StartsWith(file.path, "src/ldp/") ||
      StartsWith(file.path, "src/stream/") ||
      StartsWith(file.path, "src/recover/")) {
    CheckFpAccumulationOrder(tree, file, findings);
  }
}

struct AllowlistEntry {
  size_t line = 0;
  std::string rule;
  std::string path;
  std::string substring;
  bool used = false;
};

std::vector<AllowlistEntry> ParseAllowlist(const std::string& text) {
  std::vector<AllowlistEntry> entries;
  size_t line_no = 0;
  size_t start = 0;
  while (start <= text.size()) {
    size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    std::string line = text.substr(start, end - start);
    start = end + 1;
    ++line_no;
    const size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    const size_t first = line.find_first_not_of(" \t");
    if (first == std::string::npos) continue;
    const size_t last = line.find_last_not_of(" \t");
    line = line.substr(first, last - first + 1);

    AllowlistEntry entry;
    entry.line = line_no;
    const size_t sp1 = line.find(' ');
    const size_t sp2 = sp1 == std::string::npos ? std::string::npos
                                                : line.find(' ', sp1 + 1);
    if (sp1 == std::string::npos || sp2 == std::string::npos) {
      // Malformed entries surface as stale (they can never match).
      entry.rule = line;
      entries.push_back(entry);
      continue;
    }
    entry.rule = line.substr(0, sp1);
    entry.path = line.substr(sp1 + 1, sp2 - sp1 - 1);
    entry.substring = line.substr(sp2 + 1);
    entries.push_back(entry);
  }
  return entries;
}

}  // namespace

LintResult LintScannedTree(const LintTree& tree,
                           const std::string& allowlist_text,
                           const std::string& allowlist_path) {
  std::vector<Finding> raw;
  for (const SourceFile& file : tree.files) {
    if (EndsWith(file.path, ".cc") || EndsWith(file.path, ".h") ||
        EndsWith(file.path, ".cpp")) {
      LintOneFile(tree, file, &raw);
    }
  }
  CheckTestRegistration(tree, &raw);
  CheckLayering(tree, &raw);

  // Pragma suppression: a finding on a line covered by its rule's
  // `<key>-ok(<reason>)` pragma is dropped.
  std::vector<Finding> unsuppressed;
  for (Finding& finding : raw) {
    const std::string key = PragmaKeyForRule(finding.rule);
    const SourceFile* file = tree.Find(finding.path);
    if (!key.empty() && file != nullptr &&
        file->SuppressedAt(finding.line, key)) {
      continue;
    }
    unsuppressed.push_back(std::move(finding));
  }

  // Allowlist suppression; every entry must still match something.
  std::vector<AllowlistEntry> entries = ParseAllowlist(allowlist_text);
  std::vector<Finding> kept;
  for (Finding& finding : unsuppressed) {
    bool suppressed = false;
    for (AllowlistEntry& entry : entries) {
      if (entry.rule == finding.rule && entry.path == finding.path &&
          finding.message.find(entry.substring) != std::string::npos) {
        entry.used = true;
        suppressed = true;  // keep scanning: several entries may match
      }
    }
    if (!suppressed) kept.push_back(std::move(finding));
  }
  for (const AllowlistEntry& entry : entries) {
    if (entry.used) continue;
    kept.push_back(Finding{
        allowlist_path.empty() ? "lint_allowlist.txt" : allowlist_path,
        entry.line, "allowlist",
        "stale allowlist entry '" + entry.rule +
            (entry.path.empty() ? "" : " " + entry.path) +
            "': no current finding matches it — delete the entry"});
  }

  std::sort(kept.begin(), kept.end(), [](const Finding& a, const Finding& b) {
    return std::tie(a.path, a.line, a.rule, a.message) <
           std::tie(b.path, b.line, b.rule, b.message);
  });

  LintResult result;
  result.findings = std::move(kept);
  result.files_scanned = tree.files.size();
  return result;
}

namespace {

/// Loads `disk` into `tree` under the repo-relative `repo_path`;
/// missing files are skipped when `optional`.
Status LoadInto(const fs::path& disk, const std::string& repo_path,
                bool optional, LintTree* tree) {
  std::error_code ec;
  if (!fs::exists(disk, ec) || ec) {
    if (optional) return Status::Ok();
    return NotFoundError("no such file or directory: " + disk.string());
  }
  auto file = LoadSourceFile(disk.string(), repo_path);
  if (!file.ok()) return file.status();
  tree->files.push_back(std::move(file).value());
  return Status::Ok();
}

/// Scans the roots plus the repo-level inputs (CMakeLists.txt, the CI
/// workflow, ci/lint_layers.txt) into a tree, without running any
/// rule.
StatusOr<LintTree> ScanTree(const LintOptions& options) {
  LintTree tree;
  tree.repo_root = options.repo_root;
  const fs::path repo_root(options.repo_root);

  std::vector<fs::path> scan_files;
  for (const std::string& root : options.roots) {
    fs::path root_path(root);
    if (root_path.is_relative() && !options.repo_root.empty()) {
      root_path = repo_root / root_path;
    }
    std::error_code ec;
    if (fs::is_directory(root_path, ec)) {
      for (fs::recursive_directory_iterator it(root_path, ec), end;
           it != end && !ec; it.increment(ec)) {
        if (!it->is_regular_file()) continue;
        const std::string ext = it->path().extension().string();
        if (ext == ".cc" || ext == ".h" || ext == ".cpp") {
          scan_files.push_back(it->path());
        }
      }
      if (ec) return InternalError("walking " + root_path.string() + ": " +
                                   ec.message());
    } else if (fs::is_regular_file(root_path, ec)) {
      scan_files.push_back(root_path);
    } else {
      return NotFoundError("no such file or directory: " + root);
    }
  }
  // Deterministic scan order regardless of directory-entry order.
  std::sort(scan_files.begin(), scan_files.end());

  const std::string root_prefix =
      options.repo_root.empty()
          ? ""
          : fs::path(options.repo_root).generic_string() + "/";
  for (const fs::path& path : scan_files) {
    std::string repo_path = path.generic_string();
    if (!root_prefix.empty() && StartsWith(repo_path, root_prefix)) {
      repo_path = repo_path.substr(root_prefix.size());
    }
    auto file = LoadSourceFile(path.string(), repo_path);
    if (!file.ok()) return file.status();
    tree.files.push_back(std::move(file).value());
  }

  // R4's inputs (the build registration and the CI smoke steps) and
  // R6's (the declared layer order).
  if (!options.repo_root.empty()) {
    Status status = LoadInto(repo_root / "CMakeLists.txt", "CMakeLists.txt",
                             /*optional=*/true, &tree);
    if (!status.ok()) return status;
    status = LoadInto(repo_root / ".github/workflows/ci.yml",
                      ".github/workflows/ci.yml", /*optional=*/true, &tree);
    if (!status.ok()) return status;
    status = LoadInto(repo_root / "ci/lint_layers.txt", "ci/lint_layers.txt",
                      /*optional=*/true, &tree);
    if (!status.ok()) return status;
  }
  return tree;
}

}  // namespace

StatusOr<LintResult> RunLint(const LintOptions& options) {
  auto tree = ScanTree(options);
  if (!tree.ok()) return tree.status();

  std::string allowlist_text;
  if (!options.allowlist_path.empty()) {
    fs::path allowlist(options.allowlist_path);
    if (allowlist.is_relative() && !options.repo_root.empty()) {
      allowlist = fs::path(options.repo_root) / allowlist;
    }
    std::error_code ec;
    if (fs::exists(allowlist, ec) && !ec) {
      auto file = LoadSourceFile(allowlist.string(), options.allowlist_path);
      if (!file.ok()) return file.status();
      for (const std::string& line : file.value().raw_lines) {
        allowlist_text += line;
        allowlist_text += '\n';
      }
    }
  }

  return LintScannedTree(tree.value(), allowlist_text, options.allowlist_path);
}

}  // namespace lint
}  // namespace ldpr
