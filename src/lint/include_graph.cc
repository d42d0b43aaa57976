// R6 — the src/ include graph against the declared layer order.
//
// A token scan of one TU cannot see that src/util/ grew an upward
// include into src/shard/ and closed a layering cycle.  This rule
// builds the quote-include graph from the already-scanned tree (no
// extra IO: include targets are resolved against the repo-relative
// paths the scanner recorded) and enforces the layer order committed
// as ci/lint_layers.txt: a file in src/<X>/ may include its own
// subdirectory or any subdirectory listed on an earlier line, nothing
// later.  The layer file itself must list exactly the src/
// subdirectories: a missing one and a stale line (its directory is
// gone) are both findings.  The stale check is the rule's one disk
// probe, so that a partial scan does not report unscanned layers.
//
// Include lines are taken from raw_lines (the scanner blanks string
// literals, which is exactly where the include path lives) but only
// on lines whose code view still carries the `#include` token — a
// commented-out include is not an edge.

#include <algorithm>
#include <filesystem>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "lint/lint.h"
#include "lint/source_file.h"

namespace ldpr {
namespace lint {
namespace {

namespace fs = std::filesystem;

/// First path component of `path`, or "" when there is none.
std::string FirstComponent(const std::string& path) {
  const size_t slash = path.find('/');
  return slash == std::string::npos ? "" : path.substr(0, slash);
}

/// The quoted include target on a raw line, or "".  The code view
/// must still carry the directive (comments are blanked there), and
/// the path itself comes from the raw view (string bodies are blanked
/// in the code view).
std::string IncludeTarget(const std::string& raw, const std::string& code) {
  if (FindToken(code, "#include") == std::string::npos &&
      FindToken(code, "# include") == std::string::npos) {
    return "";
  }
  const size_t open = raw.find('"');
  if (open == std::string::npos) return "";  // <system> include
  const size_t close = raw.find('"', open + 1);
  if (close == std::string::npos) return "";
  return raw.substr(open + 1, close - open - 1);
}

/// One `#include "target"` edge out of a scanned file under src/.
/// `target` is the include string verbatim (resolved against -Isrc,
/// so "ldp/grr.h" means src/ldp/grr.h); `subdir`/`target_subdir` are
/// the first path components on each side ("" when the target is not
/// a src/ subdirectory — e.g. "gtest/gtest.h").
struct IncludeEdge {
  std::string path;    // including file, repo-relative (src/...)
  size_t line = 0;     // 1-based line of the #include
  std::string target;  // include string, src-relative
  std::string subdir;
  std::string target_subdir;
};

/// The quote-include edges of every scanned file under src/, in
/// (path, line) scan order.  A target subdir counts as a src/ subdir
/// when some scanned file lives under it (fixture trees) — external
/// includes get "".
std::vector<IncludeEdge> BuildIncludeGraph(const LintTree& tree) {
  // Subdirs that exist in the scan: the resolution set for targets.
  std::set<std::string> src_subdirs;
  for (const SourceFile& file : tree.files) {
    if (StartsWith(file.path, "src/")) {
      const std::string subdir = FirstComponent(file.path.substr(4));
      if (!subdir.empty()) src_subdirs.insert(subdir);
    }
  }

  std::vector<IncludeEdge> edges;
  for (const SourceFile& file : tree.files) {
    if (!StartsWith(file.path, "src/")) continue;
    const std::string subdir = FirstComponent(file.path.substr(4));
    if (subdir.empty()) continue;
    const size_t lines =
        std::min(file.raw_lines.size(), file.code_lines.size());
    for (size_t i = 0; i < lines; ++i) {
      const std::string target =
          IncludeTarget(file.raw_lines[i], file.code_lines[i]);
      if (target.empty()) continue;
      IncludeEdge edge;
      edge.path = file.path;
      edge.line = i + 1;
      edge.target = target;
      edge.subdir = subdir;
      const std::string target_subdir = FirstComponent(target);
      edge.target_subdir =
          src_subdirs.count(target_subdir) ? target_subdir : "";
      edges.push_back(std::move(edge));
    }
  }
  return edges;
}

/// One line of the committed layer order.
struct Layer {
  std::string subdir;
  size_t line = 0;  // 1-based line in ci/lint_layers.txt
};

/// The committed layer order: one subdir per line, '#' comments and
/// blank lines skipped, lowest layer first.
std::vector<Layer> ParseLayerOrder(const SourceFile& layers_file) {
  std::vector<Layer> layers;
  for (size_t i = 0; i < layers_file.raw_lines.size(); ++i) {
    std::string line = layers_file.raw_lines[i];
    const size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    const size_t first = line.find_first_not_of(" \t");
    if (first == std::string::npos) continue;
    const size_t last = line.find_last_not_of(" \t");
    layers.push_back(Layer{line.substr(first, last - first + 1), i + 1});
  }
  return layers;
}

/// Whether src/<subdir>/ still exists: some scanned file lives there
/// or, for a tree scanned from a repo, the directory is on disk.
bool LayerExists(const LintTree& tree, const std::string& subdir) {
  const std::string prefix = "src/" + subdir + "/";
  for (const SourceFile& file : tree.files) {
    if (StartsWith(file.path, prefix.c_str())) return true;
  }
  std::error_code ec;
  return !tree.repo_root.empty() &&
         fs::is_directory(fs::path(tree.repo_root) / "src" / subdir, ec);
}

/// Depth-first cycle search over the file-level include graph.  Every
/// cycle is reported once, keyed by its sorted member set, at the
/// include line that closes it.
class CycleFinder {
 public:
  CycleFinder(const std::vector<IncludeEdge>& edges, std::vector<Finding>* out)
      : out_(out) {
    for (const IncludeEdge& edge : edges) {
      if (edge.target_subdir.empty()) continue;
      adjacency_[edge.path].push_back(&edge);
    }
  }

  void Run() {
    // Iterate a sorted node list so findings are order-stable.
    std::vector<std::string> nodes;
    for (const auto& [path, edges] : adjacency_) nodes.push_back(path);
    std::sort(nodes.begin(), nodes.end());
    for (const std::string& node : nodes) Visit(node);
  }

 private:
  void Visit(const std::string& path) {
    if (done_.count(path)) return;
    on_stack_.push_back(path);
    const auto it = adjacency_.find(path);
    if (it != adjacency_.end()) {
      for (const IncludeEdge* edge : it->second) {
        const std::string target = "src/" + edge->target;
        const auto cycle_start =
            std::find(on_stack_.begin(), on_stack_.end(), target);
        if (cycle_start != on_stack_.end()) {
          Report(*edge, std::vector<std::string>(cycle_start, on_stack_.end()));
          continue;
        }
        Visit(target);
      }
    }
    on_stack_.pop_back();
    done_.insert(path);
  }

  void Report(const IncludeEdge& closing, std::vector<std::string> members) {
    std::vector<std::string> key = members;
    std::sort(key.begin(), key.end());
    std::string joined;
    for (const std::string& member : key) joined += member + "|";
    if (!reported_.insert(joined).second) return;
    std::string chain;
    for (const std::string& member : members) chain += member + " -> ";
    chain += members.front();
    out_->push_back(Finding{
        closing.path, closing.line, "R6",
        "include cycle: " + chain + " — break the cycle (move the shared "
        "declarations down a layer) or add `// lint: layering-ok(<reason>)`"});
  }

  std::map<std::string, std::vector<const IncludeEdge*>> adjacency_;
  std::vector<std::string> on_stack_;
  std::set<std::string> done_;
  std::set<std::string> reported_;
  std::vector<Finding>* out_;
};

}  // namespace

void CheckLayering(const LintTree& tree, std::vector<Finding>* out) {
  const SourceFile* layers_file = tree.Find("ci/lint_layers.txt");
  if (layers_file == nullptr) return;  // fixture trees without the contract
  const std::vector<Layer> layers = ParseLayerOrder(*layers_file);
  std::map<std::string, size_t> rank;
  for (size_t i = 0; i < layers.size(); ++i) rank[layers[i].subdir] = i;

  // Every line must still name a src/ subdir, the way stale allowlist
  // entries are findings: a layer must not outlive its code.
  for (const Layer& layer : layers) {
    if (LayerExists(tree, layer.subdir)) continue;
    out->push_back(Finding{
        "ci/lint_layers.txt", layer.line, "R6",
        "stale layer '" + layer.subdir + "': src/" + layer.subdir +
            "/ does not exist — delete the line"});
  }

  // Every src/ subdir must be in the committed order.
  std::set<std::string> unlisted;
  for (const SourceFile& file : tree.files) {
    if (!StartsWith(file.path, "src/")) continue;
    const std::string subdir = FirstComponent(file.path.substr(4));
    if (!subdir.empty() && !rank.count(subdir)) unlisted.insert(subdir);
  }
  for (const std::string& subdir : unlisted) {
    out->push_back(Finding{
        "ci/lint_layers.txt", 1, "R6",
        "src/" + subdir + "/ is not in the layer order — add it at the "
        "lowest line consistent with its includes"});
  }

  const std::vector<IncludeEdge> edges = BuildIncludeGraph(tree);
  for (const IncludeEdge& edge : edges) {
    if (edge.target_subdir.empty() || edge.target_subdir == edge.subdir) {
      continue;
    }
    const auto from = rank.find(edge.subdir);
    const auto to = rank.find(edge.target_subdir);
    if (from == rank.end() || to == rank.end()) continue;  // reported above
    if (to->second > from->second) {
      out->push_back(Finding{
          edge.path, edge.line, "R6",
          "upward include: src/" + edge.subdir + "/ (layer " +
              std::to_string(from->second) + ") includes \"" + edge.target +
              "\" from layer " + std::to_string(to->second) +
              " — layers may only include downward (ci/lint_layers.txt); "
              "move the dependency or add `// lint: layering-ok(<reason>)`"});
    }
  }

  CycleFinder(edges, out).Run();
}

}  // namespace lint
}  // namespace ldpr
