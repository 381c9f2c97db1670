// Unit tests for the scrubber-lint v2 whole-program passes, built against
// the linter core library over synthetic in-memory trees: lexer edge
// cases, the indexer's scope scanner, call-graph resolution policy, the
// bounded transitive walk, module layering, suppression bookkeeping and
// the SARIF emitter. The fixture-tree test (lint_rules_test.cpp) covers
// the binary end to end; this file covers the pieces in isolation.

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "lint/callgraph.hpp"
#include "lint/index.hpp"
#include "lint/lexer.hpp"
#include "lint/rules.hpp"
#include "lint/sarif.hpp"

namespace {

using scrubber::lint::build_call_graph;
using scrubber::lint::build_index;
using scrubber::lint::CallGraph;
using scrubber::lint::check_transitive;
using scrubber::lint::Diagnostic;
using scrubber::lint::FunctionDef;
using scrubber::lint::lex;
using scrubber::lint::LexedFile;
using scrubber::lint::module_of;
using scrubber::lint::ProjectIndex;
using scrubber::lint::Sink;
using scrubber::lint::TransitiveOptions;
using scrubber::lint::UsedSuppressions;

/// Builds a ProjectIndex from (path, source) pairs.
ProjectIndex index_of(
    const std::vector<std::pair<std::string, std::string>>& sources) {
  std::vector<LexedFile> lexed;
  lexed.reserve(sources.size());
  for (const auto& [path, text] : sources) {
    lexed.push_back(lex(path, text));
  }
  return build_index(std::move(lexed));
}

const FunctionDef* find_function(const ProjectIndex& index,
                                 const std::string& qualified) {
  for (const FunctionDef& def : index.functions) {
    if (def.qualified == qualified) return &def;
  }
  return nullptr;
}

/// Runs the transitive pass and returns surviving diagnostics.
Sink transitive_diags(const ProjectIndex& index, int max_depth = 6) {
  const CallGraph graph = build_call_graph(index);
  Sink raw;
  UsedSuppressions used;
  TransitiveOptions options;
  options.max_depth = max_depth;
  check_transitive(index, graph, options, raw, used);
  Sink kept;
  apply_suppressions(index, std::move(raw), used, kept);
  return kept;
}

// ---------------------------------------------------------------- lexer

TEST(LintLexer, RawStringPayloadProducesNoTokens) {
  const LexedFile f = lex("src/util/a.cpp",
                          "const char* s = R\"x(rand() \" )\" volatile)x\";\n"
                          "int live = 1;\n");
  for (const auto& token : f.tokens) {
    EXPECT_NE(token.text, "rand");
    EXPECT_NE(token.text, "volatile");
  }
  // The code after the literal still tokenizes.
  bool saw_live = false;
  for (const auto& token : f.tokens) saw_live |= token.text == "live";
  EXPECT_TRUE(saw_live);
}

TEST(LintLexer, RawStringEncodingPrefixes) {
  for (const char* prefix : {"R", "LR", "uR", "UR", "u8R"}) {
    const std::string text =
        std::string("auto s = ") + prefix + "\"(srand(1))\";\nint after = 2;\n";
    const LexedFile f = lex("src/util/a.cpp", text);
    for (const auto& token : f.tokens) EXPECT_NE(token.text, "srand");
  }
}

TEST(LintLexer, IdentifierEndingInRIsNotARawString) {
  // `fooR"(...)"` is identifier + ordinary string, not a raw literal.
  const LexedFile f = lex("src/util/a.cpp", "auto x = fooR\"(text)\";\n");
  bool saw_ident = false;
  for (const auto& token : f.tokens) saw_ident |= token.text == "fooR";
  EXPECT_TRUE(saw_ident);
}

TEST(LintLexer, CommentContinuationSwallowsNextLine) {
  const LexedFile f = lex("src/util/a.cpp",
                          "// spliced comment \\\n"
                          "rand(); volatile int x = 0;\n"
                          "int live = 1;\n");
  for (const auto& token : f.tokens) {
    EXPECT_NE(token.text, "rand");
    EXPECT_NE(token.text, "volatile");
  }
  // Line numbers survive the splice: `live` sits on physical line 3.
  for (const auto& token : f.tokens) {
    if (token.text == "live") {
      EXPECT_EQ(token.line, 3);
    }
  }
}

TEST(LintLexer, DirectiveContinuationStaysDirective) {
  const LexedFile f = lex("src/util/a.cpp",
                          "#define NOISE() \\\n"
                          "  rand()\n"
                          "int live = 1;\n");
  for (const auto& token : f.tokens) EXPECT_NE(token.text, "rand");
  ASSERT_FALSE(f.directives.empty());
  EXPECT_NE(f.directives[0].text.find("rand"), std::string::npos);
}

// --------------------------------------------------------------- indexer

TEST(LintIndex, FreeMemberOutOfLineAndDestructor) {
  const ProjectIndex index = index_of({{"src/util/a.cpp",
                                        "namespace scrubber::util {\n"
                                        "int helper(int x) { return x; }\n"
                                        "struct Ring {\n"
                                        "  int push() { return 1; }\n"
                                        "  ~Ring() { push(); }\n"
                                        "};\n"
                                        "int Ring::popped() { return 0; }\n"
                                        "}\n"}});
  EXPECT_NE(find_function(index, "scrubber::util::helper"), nullptr);
  EXPECT_NE(find_function(index, "scrubber::util::Ring::push"), nullptr);
  EXPECT_NE(find_function(index, "scrubber::util::Ring::~Ring"), nullptr);
  const FunctionDef* popped =
      find_function(index, "scrubber::util::Ring::popped");
  ASSERT_NE(popped, nullptr);
  EXPECT_EQ(popped->class_name, "Ring");
}

TEST(LintIndex, DeclarationsAndMacrosAreNotDefinitions) {
  const ProjectIndex index = index_of({{"src/util/a.cpp",
                                        "int declared(int x);\n"
                                        "int defaulted(int x) = delete;\n"
                                        "MACRO_LIKE(name);\n"
                                        "int real() { return 1; }\n"}});
  ASSERT_EQ(index.functions.size(), 1u);
  EXPECT_EQ(index.functions[0].name, "real");
}

TEST(LintIndex, TemplateClassMembersAreIndexed) {
  // The `=` in a defaulted template parameter must not stop `class Table`
  // from opening a class scope (regression: FlatHash members were lost).
  const ProjectIndex index =
      index_of({{"src/util/a.hpp",
                 "#pragma once\n"
                 "template <typename K, typename H = std::hash<K>>\n"
                 "class Table {\n"
                 " public:\n"
                 "  void grow() { entries_.push_back(0); }\n"
                 "};\n"}});
  const FunctionDef* grow = find_function(index, "Table::grow");
  ASSERT_NE(grow, nullptr);
  EXPECT_EQ(grow->class_name, "Table");
}

TEST(LintIndex, EnumClassIsNotAClassScope) {
  const ProjectIndex index = index_of({{"src/util/a.cpp",
                                        "enum class Color { kRed, kBlue };\n"
                                        "int after() { return 0; }\n"}});
  ASSERT_EQ(index.functions.size(), 1u);
  EXPECT_EQ(index.functions[0].class_name, "");
}

TEST(LintIndex, QuotedIncludesBecomeEdges) {
  const ProjectIndex index =
      index_of({{"src/ml/a.cpp",
                 "#include <vector>\n#include \"netio/udp.hpp\"\n"}});
  ASSERT_EQ(index.includes.size(), 1u);
  EXPECT_EQ(index.includes[0].path, "netio/udp.hpp");
  EXPECT_EQ(index.includes[0].line, 2);
}

TEST(LintIndex, ModuleOfPaths) {
  EXPECT_EQ(module_of("src/runtime/ring.hpp"), "runtime");
  EXPECT_EQ(module_of("src/main.cpp"), "");
  EXPECT_EQ(module_of("tools/lint/main.cpp"), "tools");
  EXPECT_EQ(module_of("bench/micro.cpp"), "bench");
  EXPECT_EQ(module_of("tests/a.cpp"), "");
}

// ------------------------------------------------------------ call graph

TEST(LintGraph, CrossTuResolutionAndVeto) {
  const ProjectIndex index =
      index_of({{"src/core/a.cpp",
                 "void caller() { helper(); items.size(); }\n"},
                {"src/util/b.cpp", "void helper() {}\n"}});
  const CallGraph graph = build_call_graph(index);
  EXPECT_EQ(graph.resolved_edges, 1u);  // helper() — cross-TU
  EXPECT_EQ(graph.vetoed_calls, 1u);    // size() — vocabulary veto
}

TEST(LintGraph, SameFileFreeFunctionPreferred) {
  // Two anonymous-namespace-style twins: the caller's own TU wins.
  const ProjectIndex index =
      index_of({{"src/core/a.cpp",
                 "static int now_ms() { return 1; }\n"
                 "int caller() { return now_ms(); }\n"},
                {"src/netio/b.cpp", "static int now_ms() { return 2; }\n"}});
  const CallGraph graph = build_call_graph(index);
  bool found = false;
  for (std::size_t c = 0; c < index.calls.size(); ++c) {
    if (index.calls[c].name != "now_ms") continue;
    found = true;
    ASSERT_EQ(graph.call_targets[c].size(), 1u);
    EXPECT_EQ(index.functions[graph.call_targets[c][0]].file, 0u);
  }
  EXPECT_TRUE(found);
}

TEST(LintGraph, OverloadSetFallbackKeepsAllCandidates) {
  // No same-file twin: both cross-TU definitions become targets.
  const ProjectIndex index =
      index_of({{"src/core/a.cpp", "void caller() { helper(1); }\n"},
                {"src/util/b.cpp", "void helper(int x) {}\n"},
                {"src/util/c.cpp", "void helper(long x) {}\n"}});
  const CallGraph graph = build_call_graph(index);
  for (std::size_t c = 0; c < index.calls.size(); ++c) {
    if (index.calls[c].name == "helper") {
      EXPECT_EQ(graph.call_targets[c].size(), 2u);
    }
  }
}

TEST(LintGraph, ReceiverCallAmbiguousAcrossClassesIsSkipped) {
  const ProjectIndex index =
      index_of({{"src/core/a.cpp",
                 "struct A { void step() {} };\n"
                 "struct B { void step() {} };\n"
                 "void caller(A& a) { a.step(); }\n"}});
  const CallGraph graph = build_call_graph(index);
  EXPECT_EQ(graph.ambiguous_calls, 1u);
}

TEST(LintGraph, UnresolvedExternIsCountedNotFatal) {
  const ProjectIndex index =
      index_of({{"src/core/a.cpp", "void caller() { mystery(); }\n"}});
  const CallGraph graph = build_call_graph(index);
  EXPECT_EQ(graph.unresolved_calls, 1u);
  EXPECT_EQ(graph.resolved_edges, 0u);
}

// ------------------------------------------------------- transitive walk

constexpr const char* kHotRoot =
    "void entry() {\n"
    "  // scrubber-hot-begin\n"
    "  hop_one();\n"
    "  // scrubber-hot-end\n"
    "}\n";

TEST(LintWalk, TwoHopAllocationIsReportedAtRoot) {
  const ProjectIndex index =
      index_of({{"src/runtime/a.cpp", kHotRoot},
                {"src/core/b.cpp",
                 "void hop_two() { new int; }\n"
                 "void hop_one() { hop_two(); }\n"}});
  const Sink diags = transitive_diags(index);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "scrubber-transitive");
  EXPECT_EQ(diags[0].file, "src/runtime/a.cpp");
  EXPECT_EQ(diags[0].line, 3);
  EXPECT_NE(diags[0].message.find("hop_one → hop_two"), std::string::npos);
}

TEST(LintWalk, DepthBoundCutsTheChain) {
  const ProjectIndex index =
      index_of({{"src/runtime/a.cpp", kHotRoot},
                {"src/core/b.cpp",
                 "void hop_three() { new int; }\n"
                 "void hop_two() { hop_three(); }\n"
                 "void hop_one() { hop_two(); }\n"}});
  EXPECT_EQ(transitive_diags(index, /*max_depth=*/2).size(), 0u);
  EXPECT_EQ(transitive_diags(index, /*max_depth=*/3).size(), 1u);
}

TEST(LintWalk, RecursionTerminates) {
  const ProjectIndex index =
      index_of({{"src/runtime/a.cpp", kHotRoot},
                {"src/core/b.cpp",
                 "void hop_one() { hop_one(); other(); }\n"
                 "void other() { other(); }\n"}});
  EXPECT_EQ(transitive_diags(index).size(), 0u);  // and does not hang
}

TEST(LintWalk, DeterministicRegionSeesClockThroughChain) {
  const ProjectIndex index = index_of(
      {{"src/ml/a.cpp",
        "void train() {\n"
        "  // scrubber-deterministic-begin\n"
        "  stamp();\n"
        "  // scrubber-deterministic-end\n"
        "}\n"},
       {"src/util/b.cpp",
        "long stamp() { return std::chrono::steady_clock::now(); }\n"}});
  const Sink diags = transitive_diags(index);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "scrubber-deterministic");
  EXPECT_EQ(diags[0].line, 3);
  EXPECT_NE(diags[0].message.find("clock read"), std::string::npos);
}

TEST(LintWalk, SuppressedRootIsAbsorbedAndNotStale) {
  const ProjectIndex index = index_of(
      {{"src/runtime/a.cpp",
        "void entry() {\n"
        "  // scrubber-hot-begin\n"
        "  // NOLINTNEXTLINE(scrubber-transitive): arena-backed in release\n"
        "  hop_one();\n"
        "  // scrubber-hot-end\n"
        "}\n"},
       {"src/core/b.cpp", "void hop_one() { new int; }\n"}});
  EXPECT_EQ(transitive_diags(index).size(), 0u);
}

// ---------------------------------------------------- layering and stale

TEST(LintRules, LayeringViolationAndAllowedEdge) {
  const ProjectIndex index =
      index_of({{"src/ml/a.hpp", "#pragma once\n#include \"netio/udp.hpp\"\n"},
                {"src/runtime/b.hpp",
                 "#pragma once\n#include \"core/tables.hpp\"\n"}});
  Sink sink;
  scrubber::lint::rule_layering(index, sink);
  ASSERT_EQ(sink.size(), 1u);
  EXPECT_EQ(sink[0].rule, "scrubber-layering");
  EXPECT_EQ(sink[0].file, "src/ml/a.hpp");
  EXPECT_EQ(sink[0].line, 2);
}

TEST(LintRules, StaleSuppressionIsReportedAtMarkerLine) {
  const ProjectIndex index = index_of(
      {{"src/core/a.cpp",
        "int quiet() { return 3; }  // NOLINT(scrubber-raw-rand): gone\n"}});
  Sink kept;
  apply_suppressions(index, Sink{}, UsedSuppressions{}, kept);
  ASSERT_EQ(kept.size(), 1u);
  EXPECT_EQ(kept[0].rule, "scrubber-stale-nolint");
  EXPECT_EQ(kept[0].line, 1);
}

TEST(LintRules, UsedSuppressionIsNotStale) {
  const ProjectIndex index = index_of(
      {{"src/core/a.cpp",
        "int noisy() { return rand(); }  // NOLINT(scrubber-raw-rand): "
        "fixture\n"}});
  Sink raw;
  scrubber::lint::run_file_rules(index.files[0].lexed, raw);
  Sink kept;
  apply_suppressions(index, std::move(raw), UsedSuppressions{}, kept);
  EXPECT_TRUE(kept.empty());
}

// ---------------------------------------------------------- unreferenced

using Sources = std::vector<std::pair<std::string, std::string>>;

/// scrubber-unreferenced findings over `sources`, with `reference_only`
/// lexed as reference-only roots (examples/, bench_e2e/).
Sink unreferenced_diags(const Sources& sources,
                        const Sources& reference_only = {}) {
  std::vector<LexedFile> references;
  for (const auto& [path, text] : reference_only) {
    references.push_back(lex(path, text));
  }
  Sink sink;
  scrubber::lint::rule_unreferenced(index_of(sources), references, sink);
  return sink;
}

TEST(LintUnreferenced, OverrideOfACalledBaseIsUsed) {
  const Sink diags = unreferenced_diags(
      {{"src/core/sink.hpp",
        "#pragma once\n"
        "struct Base { virtual void emit() = 0; };\n"
        "struct Impl : Base { void emit() override {} };\n"
        "void run(Base& base) { base.emit(); }\n"},
       {"tools/main.cpp", "int main() { Impl impl; run(impl); }\n"}});
  EXPECT_TRUE(diags.empty()) << diags.front().message;
}

TEST(LintUnreferenced, AddressTakenFunctionIsUsed) {
  const Sink diags = unreferenced_diags(
      {{"src/util/a.cpp", "int twice(int v) { return 2 * v; }\n"},
       {"tools/main.cpp", "int main() { auto* f = &twice; return f(1); }\n"}});
  EXPECT_TRUE(diags.empty()) << diags.front().message;
}

TEST(LintUnreferenced, NameInAMacroBodyIsUsed) {
  const Sink diags = unreferenced_diags(
      {{"src/util/check.hpp",
        "#pragma once\n"
        "void checked_fail(const char* what) {}\n"
        "#define CHECK(x) ((x) ? (void)0 : checked_fail(#x))\n"}});
  EXPECT_TRUE(diags.empty()) << diags.front().message;
}

TEST(LintUnreferenced, ReferenceOnlyRootCountsAsUse) {
  const Sources src = {{"src/core/a.cpp", "int setup_seconds() { return 1; }\n"}};
  EXPECT_EQ(unreferenced_diags(src).size(), 1u);
  EXPECT_TRUE(unreferenced_diags(
                  src, {{"bench_e2e/main.cpp",
                         "int main() { return setup_seconds(); }\n"}})
                  .empty());
}

TEST(LintUnreferenced, RecursionDeclarationsAndTestCallsAreNotUses) {
  const Sink diags = unreferenced_diags(
      {{"src/core/a.hpp", "#pragma once\nint helper();\nclass Lonely;\n"},
       {"src/core/a.cpp",
        "int countdown(int n) { return n ? countdown(n - 1) : 0; }\n"
        "int helper() { return 2; }\n"
        "class Lonely { Lonely copy() const; };\n"
        "Lonely Lonely::copy() const { return Lonely{}; }\n"},
       {"tests/core/a_test.cpp",
        "void check() { helper(); countdown(3); Lonely l; }\n"}});
  std::vector<std::pair<std::string, int>> where;
  for (const Diagnostic& d : diags) {
    EXPECT_EQ(d.rule, "scrubber-unreferenced");
    where.emplace_back(d.file, d.line);
  }
  const std::vector<std::pair<std::string, int>> want = {
      {"src/core/a.cpp", 1}, {"src/core/a.cpp", 2},
      {"src/core/a.cpp", 3}, {"src/core/a.cpp", 4}};
  std::sort(where.begin(), where.end());
  EXPECT_EQ(where, want);
}

// ------------------------------------------------------------------ sarif

TEST(LintSarif, EscapesAndEmbedsDiagnostics) {
  Sink sink;
  sink.push_back(Diagnostic{"src/a \"b\".cpp", 7, "scrubber-raw-rand",
                            "line1\nline2\tand \\slash"});
  std::ostringstream out;
  scrubber::lint::write_sarif(sink, out);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"version\": \"2.1.0\""), std::string::npos);
  EXPECT_NE(json.find("\"ruleId\": \"scrubber-raw-rand\""), std::string::npos);
  EXPECT_NE(json.find("src/a \\\"b\\\".cpp"), std::string::npos);
  EXPECT_NE(json.find("line1\\nline2\\tand \\\\slash"), std::string::npos);
  EXPECT_NE(json.find("\"startLine\": 7"), std::string::npos);
  // Every declared rule id ships in the tool metadata.
  for (const std::string& rule : scrubber::lint::all_rule_ids()) {
    EXPECT_NE(json.find("{\"id\": \"" + rule + "\"}"), std::string::npos);
  }
}

}  // namespace
