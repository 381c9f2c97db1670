// scrubber-lint v2 — whole-program static analysis for the IXP scrubber.
//
// clang-tidy covers general C++ hygiene; this analyzer enforces the
// *project* invariants that keep the concurrent ingest runtime honest and
// that no off-the-shelf check can express. v1 was purely lexical; v2 adds
// a whole-program index and call graph so region contracts hold through
// call chains, plus layering enforcement and stale-suppression detection:
//
//   pass 0 (lexer)    comment/string-aware token scan; raw strings with
//                     encoding prefixes, backslash-newline continuations
//                     in comments/directives, digit separators; hot and
//                     deterministic region markers
//   pass 1 (index)    function definitions, call sites, #include edges,
//                     region membership for every TU under the targets
//   pass 2 (taint)    scrubber-transitive: hot regions transitively
//                     forbid allocation, blocking syscalls and node
//                     containers through any call chain (bounded depth);
//                     scrubber-deterministic: det regions transitively
//                     ban rand/clock reads/unordered iteration/address
//                     ordering
//   pass 3 (program)  scrubber-layering: quoted includes must follow the
//                     declared module DAG; scrubber-unreferenced: src/
//                     functions and classes nothing outside tests/ names;
//                     scrubber-stale-nolint: suppressions that no longer
//                     silence anything
//
// examples/ and bench_e2e/ under --root are reference-only roots: when
// they are not targets themselves they are lexed for identifiers (uses
// that keep src/ code alive) and never linted.
//
// Direct (per-file) rules are unchanged from v1 — see lint/rules.cpp.
//
// Suppression: append a NOLINT comment naming the scrubber-<rule> and a
// `: <justification>` to the offending line, or a NOLINTNEXTLINE variant
// on the line above. The justification text is mandatory — a bare NOLINT
// is itself a violation (scrubber-nolint-needs-reason). For transitive
// findings, suppress at the call site the diagnostic points at.
//
// Output: one `file:line: rule-id message` diagnostic per violation;
// `--sarif FILE` additionally writes SARIF 2.1.0 for CI annotation;
// `--graph dot` dumps the resolved call graph and the module DAG as
// Graphviz instead of diagnostics. Exit status 1 when anything fired, 0
// when clean, 2 on usage/IO errors. Wired into ctest as
// `scrubber_lint_repo` over src/, tools/ and bench/.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "lint/callgraph.hpp"
#include "lint/index.hpp"
#include "lint/rules.hpp"
#include "lint/sarif.hpp"

namespace {

namespace fs = std::filesystem;

using scrubber::lint::Diagnostic;
using scrubber::lint::Sink;

bool lintable(const fs::path& path) {
  const std::string ext = path.extension().string();
  return ext == ".cpp" || ext == ".hpp" || ext == ".h" || ext == ".cc";
}

struct Options {
  fs::path root;
  std::vector<std::string> targets;
  std::set<std::string> only_rules;
  std::string sarif_path;
  bool graph_dot = false;
  int max_depth = 6;
};

/// Appends the lintable files under `path` (a directory or one file).
bool collect(const fs::path& path, std::vector<fs::path>& files) {
  std::error_code ec;
  if (fs::is_directory(path, ec)) {
    for (auto it = fs::recursive_directory_iterator(path, ec);
         it != fs::recursive_directory_iterator(); ++it) {
      if (it->is_regular_file() && lintable(it->path())) {
        files.push_back(it->path());
      }
    }
    return true;
  }
  if (fs::is_regular_file(path, ec)) {
    files.push_back(path);
    return true;
  }
  return false;
}

bool lex_all(const Options& options, const std::vector<fs::path>& files,
             std::vector<scrubber::lint::LexedFile>& lexed) {
  lexed.reserve(files.size());
  for (const fs::path& path : files) {
    std::ifstream in(path, std::ios::binary);
    if (!in) {
      std::fprintf(stderr, "scrubber-lint: cannot read %s\n",
                   path.string().c_str());
      return false;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    const std::string rel = fs::relative(path, options.root).generic_string();
    lexed.push_back(scrubber::lint::lex(rel, buffer.str()));
  }
  return true;
}

int run(const Options& options, Sink& sink) {
  std::vector<fs::path> files;
  for (const std::string& target : options.targets) {
    const fs::path path = options.root / target;
    if (!collect(path, files)) {
      std::fprintf(stderr, "scrubber-lint: no such file or directory: %s\n",
                   path.string().c_str());
      return 2;
    }
  }
  std::sort(files.begin(), files.end());
  files.erase(std::unique(files.begin(), files.end()), files.end());
  std::vector<fs::path> reference_files;
  for (const char* root : {"examples", "bench_e2e"}) {
    std::vector<fs::path> found;
    collect(options.root / root, found);
    for (const fs::path& path : found) {
      if (!std::binary_search(files.begin(), files.end(), path)) {
        reference_files.push_back(path);
      }
    }
  }

  const auto started = std::chrono::steady_clock::now();
  std::vector<scrubber::lint::LexedFile> lexed;
  std::vector<scrubber::lint::LexedFile> reference_only;
  if (!lex_all(options, files, lexed) ||
      !lex_all(options, reference_files, reference_only)) {
    return 2;
  }

  const scrubber::lint::ProjectIndex index =
      scrubber::lint::build_index(std::move(lexed));
  const scrubber::lint::CallGraph graph =
      scrubber::lint::build_call_graph(index);

  if (options.graph_dot) {
    std::ostringstream dot;
    scrubber::lint::dot_dump(index, graph, dot);
    std::fputs(dot.str().c_str(), stdout);
    return 0;
  }

  Sink raw;
  for (const scrubber::lint::IndexedFile& file : index.files) {
    scrubber::lint::run_file_rules(file.lexed, raw);
  }
  scrubber::lint::rule_layering(index, raw);
  scrubber::lint::rule_unreferenced(index, reference_only, raw);
  scrubber::lint::UsedSuppressions edge_used;
  scrubber::lint::TransitiveOptions transitive;
  transitive.max_depth = options.max_depth;
  scrubber::lint::check_transitive(index, graph, transitive, raw, edge_used);

  Sink kept;
  scrubber::lint::apply_suppressions(index, std::move(raw), edge_used, kept);

  for (Diagnostic& d : kept) {
    if (!options.only_rules.empty() &&
        options.only_rules.count(d.rule) == 0) {
      continue;
    }
    sink.push_back(std::move(d));
  }

  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - started);
  std::fprintf(stderr,
               "scrubber-lint: %zu files, %zu functions, %zu call edges "
               "(%zu unresolved, %zu ambiguous, %zu vetoed), analysis %lld "
               "ms\n",
               index.files.size(), index.functions.size(),
               graph.resolved_edges, graph.unresolved_calls,
               graph.ambiguous_calls, graph.vetoed_calls,
               static_cast<long long>(elapsed.count()));

  if (!options.sarif_path.empty()) {
    std::sort(sink.begin(), sink.end());
    std::ofstream out(options.sarif_path, std::ios::binary);
    if (!out) {
      std::fprintf(stderr, "scrubber-lint: cannot write %s\n",
                   options.sarif_path.c_str());
      return 2;
    }
    scrubber::lint::write_sarif(sink, out);
  }
  return 0;
}

void usage() {
  std::fprintf(
      stderr,
      "usage: scrubber-lint [--root DIR] [--rule scrubber-...] "
      "[--sarif FILE] [--max-depth N] PATH...\n"
      "       scrubber-lint [--root DIR] --graph dot PATH...\n"
      "       scrubber-lint --list-rules\n"
      "\n"
      "Lints .cpp/.hpp files under each PATH (relative to --root, default\n"
      "the current directory) against the scrubber-* project rules,\n"
      "including transitive call-graph checks for scrubber-hot and\n"
      "scrubber-deterministic regions, module-DAG layering, src/ code\n"
      "nothing outside tests/ names (examples/ and bench_e2e/ count as\n"
      "uses), and stale NOLINT detection. --sarif also writes SARIF 2.1.0; --graph dot\n"
      "dumps the call graph and module DAG as Graphviz.\n"
      "Exit status: 0 clean, 1 violations, 2 usage/IO error.\n");
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  options.root = fs::current_path();

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--root") {
      if (++i >= argc) {
        usage();
        return 2;
      }
      options.root = argv[i];
    } else if (arg == "--rule") {
      if (++i >= argc) {
        usage();
        return 2;
      }
      options.only_rules.insert(argv[i]);
    } else if (arg == "--sarif") {
      if (++i >= argc) {
        usage();
        return 2;
      }
      options.sarif_path = argv[i];
    } else if (arg == "--max-depth") {
      if (++i >= argc) {
        usage();
        return 2;
      }
      options.max_depth = std::atoi(argv[i]);
      if (options.max_depth < 1) {
        usage();
        return 2;
      }
    } else if (arg == "--graph") {
      if (++i >= argc || std::string(argv[i]) != "dot") {
        usage();
        return 2;
      }
      options.graph_dot = true;
    } else if (arg == "--list-rules") {
      for (const std::string& rule : scrubber::lint::all_rule_ids()) {
        std::printf("%s\n", rule.c_str());
      }
      return 0;
    } else if (arg == "--help" || arg == "-h") {
      usage();
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      usage();
      return 2;
    } else {
      options.targets.push_back(arg);
    }
  }
  if (options.targets.empty()) {
    usage();
    return 2;
  }

  Sink sink;
  const int status = run(options, sink);
  if (status != 0 || options.graph_dot) return status;
  std::sort(sink.begin(), sink.end());
  for (const Diagnostic& d : sink) {
    std::printf("%s:%d: %s %s\n", d.file.c_str(), d.line, d.rule.c_str(),
                d.message.c_str());
  }
  if (!sink.empty()) {
    std::fprintf(stderr, "scrubber-lint: %zu violation%s\n", sink.size(),
                 sink.size() == 1 ? "" : "s");
    return 1;
  }
  return 0;
}
